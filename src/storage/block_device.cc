#include "storage/block_device.h"

#include <thread>

namespace e2lshos::storage {

Status BlockDevice::RegisterBuffers(
    const std::vector<std::pair<void*, size_t>>&) {
  return Status::Unimplemented("fixed buffers are not supported by " + name());
}

Result<std::unique_ptr<BlockDevice>> BlockDevice::CreateQueue(
    const QueueOptions&) {
  return Status::Unimplemented(name() + " has no native queues");
}

Status BlockDevice::ReadSync(uint64_t offset, void* buf, uint32_t length) {
  IoRequest req;
  req.offset = offset;
  req.length = length;
  req.buf = buf;
  req.user_data = ~0ULL;
  E2_RETURN_NOT_OK(SubmitRead(req));
  IoCompletion comp;
  // mem: completes every queued read at the first poll, so a short grace
  // spin keeps it syscall-free; past that the completion is being held
  // back by a timed or real device and a tight loop would starve every
  // other thread on the core for the full service time.
  uint32_t polls = 0;
  for (;;) {
    const size_t n = PollCompletions(&comp, 1);
    if (n == 0 && ++polls > 64) std::this_thread::yield();
    if (n == 1) {
      if (comp.user_data != ~0ULL) {
        return Status::Internal("unexpected completion during sync read");
      }
      if (comp.code != StatusCode::kOk) {
        return Status(comp.code, "sync read failed");
      }
      return Status::OK();
    }
  }
}

}  // namespace e2lshos::storage
