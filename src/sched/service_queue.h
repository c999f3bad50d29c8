#ifndef AVDB_SCHED_SERVICE_QUEUE_H_
#define AVDB_SCHED_SERVICE_QUEUE_H_

#include <cstdint>
#include <string>

namespace avdb {

/// FIFO single-server queue in virtual time: models a device arm, a codec
/// processor, or a network link that can serve one request at a time.
/// `Submit` answers "a request arriving at time T needing S ns of service
/// completes when?" and advances the server state. The queueing delay this
/// produces under contention is exactly the §3.3 phenomenon that motivates
/// client-visible scheduling.
class ServiceQueue {
 public:
  explicit ServiceQueue(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Completion time of a request arriving at `request_ns` needing
  /// `service_ns` of exclusive server time.
  int64_t Submit(int64_t request_ns, int64_t service_ns);

  /// Earliest time a request arriving at `request_ns` could complete,
  /// without submitting it.
  int64_t PeekCompletion(int64_t request_ns, int64_t service_ns) const;

  /// Time the server becomes free.
  int64_t free_at_ns() const { return free_at_ns_; }

  /// Work already queued ahead of a request arriving at `now_ns` — the
  /// backlog a source inspects to shed load *before* committing a fetch.
  int64_t BacklogNs(int64_t now_ns) const {
    return free_at_ns_ > now_ns ? free_at_ns_ - now_ns : 0;
  }

  struct Stats {
    int64_t requests = 0;
    int64_t busy_ns = 0;     ///< total service time
    int64_t queued_ns = 0;   ///< total time requests waited behind others
    int64_t max_queue_ns = 0;
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

 private:
  std::string name_;
  int64_t free_at_ns_ = 0;
  Stats stats_;
};

}  // namespace avdb

#endif  // AVDB_SCHED_SERVICE_QUEUE_H_
