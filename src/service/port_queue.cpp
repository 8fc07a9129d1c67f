#include "service/port_queue.hpp"

#include "common/error.hpp"

namespace polymem::service {

PortQueue::PortQueue(std::size_t bound) : bound_(bound) {
  POLYMEM_REQUIRE(bound > 0, "port queue bound must be positive");
  ring_.resize(bound);
}

Status PortQueue::try_push(PendingRequest&& pending) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (size_ >= bound_) {
    ++shed_;
    return Status::kOverloaded;
  }
  ring_[slot(size_)] = std::move(pending);
  ++size_;
  ++pushed_;
  depth_high_water_.record(size_);
  return Status::kAccepted;
}

std::size_t PortQueue::pop_run(std::size_t max_run,
                               std::vector<PendingRequest>& run,
                               core::AccessBatch& batch) {
  run.clear();
  core::BatchCoalescer coalescer;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (size_ == 0) return 0;
  const Op op = ring_[head_].request.op;
  while (run.size() < max_run && size_ > 0) {
    const PendingRequest& next = ring_[head_];
    if (next.request.op != op) break;
    if (!coalescer.try_add(next.request.where)) break;
    run.push_back(take_front());
  }
  batch = coalescer.take();
  return run.size();
}

std::size_t PortQueue::pop_all(std::vector<PendingRequest>& run) {
  run.clear();
  const std::lock_guard<std::mutex> lock(mutex_);
  while (size_ > 0) run.push_back(take_front());
  return run.size();
}

std::size_t PortQueue::depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

PortQueueStats PortQueue::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {pushed_, shed_, depth_high_water_.max()};
}

}  // namespace polymem::service
