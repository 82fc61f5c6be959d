// A block device backed by a real file, with asynchronous reads executed
// on a small thread pool (simulating an async I/O ring over a regular
// filesystem). This is the path a downstream user takes to run E2LSHoS
// against an actual SSD without SPDK: it issues genuine preads.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "storage/block_device.h"
#include "storage/queue_registry.h"

namespace e2lshos::storage {

class FileDevice : public BlockDevice {
 public:
  struct Options {
    uint64_t capacity = 0;     ///< File is sized to this on creation.
    uint32_t io_threads = 4;   ///< Device-level path's pread threads.
    uint32_t queue_capacity = 1024;
    bool direct_io = false;    ///< O_DIRECT (requires 512-B aligned bufs).
  };

  /// Create (or truncate) `path` and open it for read/write.
  static Result<std::unique_ptr<FileDevice>> Create(const std::string& path,
                                                    const Options& options);

  /// Open an existing file without truncation (e.g. to serve a
  /// previously-built, persisted index). Capacity is taken from the file
  /// size; `options.capacity` is ignored.
  static Result<std::unique_ptr<FileDevice>> Open(const std::string& path,
                                                  const Options& options);

  ~FileDevice() override;

  /// The device-level path is queue 0 (io_threads wide).
  Status SubmitRead(const IoRequest& req) override;
  size_t PollCompletions(IoCompletion* out, size_t max) override;
  Status Write(uint64_t offset, const void* data, uint32_t length) override;
  uint64_t capacity() const override { return capacity_; }
  /// Direct mode reports the device-advertised alignment probed at open
  /// (statx STATX_DIOALIGN / BLKSSZGET), so 4Kn drives are honored.
  uint32_t io_alignment() const override { return direct_io_ ? align_ : 1; }
  uint32_t outstanding() const override;
  std::string name() const override { return "file:" + path_; }
  DeviceStats stats() const override;
  void ResetStats() override;

  /// Native queues: each gets a private pread-thread slice and a private
  /// completion ring over the shared fd (pread carries its own offset,
  /// so fd sharing is race-free). One queue's submit/poll never touches
  /// another queue's pool, lock, or completions.
  Result<std::unique_ptr<BlockDevice>> CreateQueue(
      const QueueOptions& options) override;

 private:
  class Queue;  // defined in file_device.cc

  FileDevice(std::string path, int fd, const Options& options);
  /// Construct and open queue 0.
  static std::unique_ptr<FileDevice> Make(std::string path, int fd,
                                          const Options& options);

  /// Shared request validation (bounds + direct-I/O alignment).
  Status ValidateRead(const IoRequest& req) const;

  std::string path_;
  int fd_;
  uint64_t capacity_;
  bool direct_io_;
  uint32_t align_ = kSectorBytes;
  mutable std::mutex write_mu_;
  uint64_t bytes_written_ = 0;  ///< Guarded by write_mu_.
  QueueRegistry<Queue> queues_;
  std::unique_ptr<Queue> queue0_;
};

}  // namespace e2lshos::storage
