#include "storage/file_device.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>

#include "storage/io_align.h"
#include "util/clock.h"
#include "util/thread_pool.h"

namespace e2lshos::storage {

FileDevice::FileDevice(std::string path, int fd, const Options& options)
    : path_(std::move(path)),
      fd_(fd),
      capacity_(options.capacity),
      direct_io_(options.direct_io) {
  if (direct_io_) align_ = EffectiveDioAlignment(ProbeDioAlignment(fd_));
}

FileDevice::~FileDevice() {
  // Drain queue 0's in-flight reads before closing the fd.
  queue0_.reset();
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<FileDevice>> FileDevice::Create(const std::string& path,
                                                       const Options& options) {
  if (options.capacity == 0) {
    return Status::InvalidArgument("file device capacity must be > 0");
  }
  int flags = O_RDWR | O_CREAT | O_TRUNC;
#ifdef O_DIRECT
  if (options.direct_io) flags |= O_DIRECT;
#endif
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IoError("open(" + path + ") failed: " + std::strerror(errno));
  }
  if (::ftruncate(fd, static_cast<off_t>(options.capacity)) != 0) {
    ::close(fd);
    return Status::IoError("ftruncate failed: " + std::string(std::strerror(errno)));
  }
  return Make(path, fd, options);
}

Result<std::unique_ptr<FileDevice>> FileDevice::Open(const std::string& path,
                                                     const Options& options) {
  int flags = O_RDWR;
#ifdef O_DIRECT
  if (options.direct_io) flags |= O_DIRECT;
#endif
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return Status::NotFound("open(" + path + ") failed: " + std::strerror(errno));
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size <= 0) {
    ::close(fd);
    return Status::InvalidArgument(path + " is empty");
  }
  Options opened = options;
  opened.capacity = static_cast<uint64_t>(size);
  return Make(path, fd, opened);
}

Status FileDevice::ValidateRead(const IoRequest& req) const {
  if (req.buf == nullptr || req.length == 0) {
    return Status::InvalidArgument("null buffer or zero length");
  }
  if (!RangeInCapacity(req.offset, req.length, capacity_)) {
    return Status::OutOfRange("read beyond device capacity");
  }
  if (direct_io_ &&
      (req.offset % align_ != 0 || req.length % align_ != 0 ||
       reinterpret_cast<uintptr_t>(req.buf) % align_ != 0)) {
    return Status::InvalidArgument(
        "direct I/O read requires " + std::to_string(align_) +
        "-byte-aligned offset/length/buffer (offset=" +
        std::to_string(req.offset) + " length=" + std::to_string(req.length) +
        ")");
  }
  return Status::OK();
}

/// Read `r`'s full extent with pread, zero-filling past the written
/// extent.
static StatusCode PreadFully(int fd, const IoRequest& r) {
  size_t done = 0;
  while (done < r.length) {
    const ssize_t got =
        ::pread(fd, static_cast<uint8_t*>(r.buf) + done, r.length - done,
                static_cast<off_t>(r.offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return StatusCode::kIoError;
    }
    if (got == 0) {
      std::memset(static_cast<uint8_t*>(r.buf) + done, 0, r.length - done);
      break;
    }
    done += static_cast<size_t>(got);
  }
  return StatusCode::kOk;
}

/// \brief One native queue: its own pread-thread slice, inflight cap,
/// completion deque, and counters, over the parent's shared fd.
class FileDevice::Queue : public BlockDevice {
 public:
  Queue(FileDevice* parent, const QueueOptions& options)
      : parent_(parent),
        queue_capacity_(std::max(1u, options.queue_capacity)),
        pool_(std::make_unique<util::ThreadPool>(
            std::max(1u, options.io_threads))) {
    id_ = parent_->queues_.Add(this);  // last: the parent may read us now
  }

  ~Queue() override {
    // Drain this queue's in-flight reads before the completion deque and
    // the parent registry entry go away.
    pool_->Shutdown();
    parent_->queues_.Remove(this);
  }

  Status SubmitRead(const IoRequest& req) override {
    E2_RETURN_NOT_OK(parent_->ValidateRead(req));
    // Reserve the queue slot atomically: a load-then-add would let
    // concurrent submitters overshoot the queue capacity.
    if (inflight_.fetch_add(1, std::memory_order_relaxed) >= queue_capacity_) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      return Status::ResourceExhausted("queue full");
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.reads_submitted;
    }
    const uint64_t submit_ns = util::NowNs();
    const IoRequest r = req;
    pool_->Submit([this, r, submit_ns] {
      IoCompletion comp;
      comp.user_data = r.user_data;
      comp.code = PreadFully(parent_->fd_, r);
      comp.latency_ns = util::NowNs() - submit_ns;
      std::lock_guard<std::mutex> lock(mu_);
      completed_.push_back(comp);
      ++stats_.reads_completed;
      stats_.bytes_read += r.length;
      stats_.read_latency.Add(comp.latency_ns);
    });
    return Status::OK();
  }

  size_t PollCompletions(IoCompletion* out, size_t max) override {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    while (n < max && !completed_.empty()) {
      out[n++] = completed_.front();
      completed_.pop_front();
    }
    inflight_.fetch_sub(static_cast<uint32_t>(n), std::memory_order_relaxed);
    return n;
  }

  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return parent_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return parent_->capacity(); }
  uint32_t io_alignment() const override { return parent_->io_alignment(); }
  uint32_t outstanding() const override {
    return inflight_.load(std::memory_order_relaxed);
  }
  std::string name() const override {
    return parent_->name() + " nq" + std::to_string(id_);
  }
  DeviceStats stats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = DeviceStats{};
  }

 private:
  FileDevice* parent_;
  uint32_t queue_capacity_;
  uint32_t id_ = 0;
  std::unique_ptr<util::ThreadPool> pool_;
  std::atomic<uint32_t> inflight_{0};
  mutable std::mutex mu_;
  std::deque<IoCompletion> completed_;
  DeviceStats stats_;
};

std::unique_ptr<FileDevice> FileDevice::Make(std::string path, int fd,
                                             const Options& options) {
  std::unique_ptr<FileDevice> dev(new FileDevice(std::move(path), fd, options));
  QueueOptions q0;
  q0.queue_capacity = options.queue_capacity;
  q0.io_threads = options.io_threads;
  dev->queue0_ = std::make_unique<Queue>(dev.get(), q0);
  return dev;
}

Result<std::unique_ptr<BlockDevice>> FileDevice::CreateQueue(
    const QueueOptions& options) {
  return std::unique_ptr<BlockDevice>(std::make_unique<Queue>(this, options));
}

Status FileDevice::SubmitRead(const IoRequest& req) {
  return queue0_->SubmitRead(req);
}

size_t FileDevice::PollCompletions(IoCompletion* out, size_t max) {
  return queue0_->PollCompletions(out, max);
}

Status FileDevice::Write(uint64_t offset, const void* data, uint32_t length) {
  if (!RangeInCapacity(offset, length, capacity_)) {
    return Status::OutOfRange("write beyond device capacity");
  }
  if (direct_io_ &&
      (offset % align_ != 0 || length % align_ != 0 ||
       reinterpret_cast<uintptr_t>(data) % align_ != 0)) {
    return Status::InvalidArgument(
        "direct I/O write requires " + std::to_string(align_) +
        "-byte-aligned offset/length/buffer (offset=" + std::to_string(offset) +
        " length=" + std::to_string(length) + ")");
  }
  size_t done = 0;
  while (done < length) {
    const ssize_t put = ::pwrite(fd_, static_cast<const uint8_t*>(data) + done,
                                 length - done, static_cast<off_t>(offset + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pwrite failed: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(put);
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  bytes_written_ += length;
  return Status::OK();
}

uint32_t FileDevice::outstanding() const { return queues_.Outstanding(); }

DeviceStats FileDevice::stats() const {
  DeviceStats out = queues_.Total();
  std::lock_guard<std::mutex> lock(write_mu_);
  out.bytes_written += bytes_written_;
  return out;
}

void FileDevice::ResetStats() {
  queues_.Reset();
  std::lock_guard<std::mutex> lock(write_mu_);
  bytes_written_ = 0;
}

}  // namespace e2lshos::storage
