#include "sched/admission.h"

#include <algorithm>
#include <cmath>

namespace avdb {

namespace {
/// Rounding slack for release accounting: repeated double add/subtract can
/// leave `used` a few ulps below zero without any logic error. Only a
/// deficit beyond this counts as an over-release.
double ReleaseEpsilon(double capacity) {
  return 1e-6 * std::max(1.0, capacity);
}
}  // namespace

Status AdmissionController::RegisterPool(const std::string& name,
                                         double capacity) {
  if (capacity < 0) {
    return Status::InvalidArgument("pool capacity must be >= 0: " + name);
  }
  if (index_.count(name) > 0) {
    return Status::AlreadyExists("pool exists: " + name);
  }
  const PoolId id = pool_count_;
  if (static_cast<size_t>(id) / kShardSize >= shards_.size()) {
    shards_.push_back(std::make_unique<PoolShard>());
  }
  ++pool_count_;
  Pool& pool = PoolAt(id);
  pool.name = name;
  pool.capacity = capacity;
  pool.used = 0;
  index_[name] = id;
  return Status::OK();
}

PoolId AdmissionController::FindPool(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? kInvalidPoolId : it->second;
}

const std::string& AdmissionController::PoolName(PoolId id) const {
  static const std::string kUnknown = "?";
  if (!ValidId(id)) return kUnknown;
  return PoolAt(id).name;
}

Result<double> AdmissionController::Capacity(const std::string& name) const {
  const PoolId id = FindPool(name);
  if (id == kInvalidPoolId) return Status::NotFound("pool: " + name);
  return PoolAt(id).capacity;
}

Result<double> AdmissionController::Available(const std::string& name) const {
  const PoolId id = FindPool(name);
  if (id == kInvalidPoolId) return Status::NotFound("pool: " + name);
  const Pool& pool = PoolAt(id);
  const double avail = pool.capacity - pool.used;
  return avail > 0 ? avail : 0.0;
}

Result<double> AdmissionController::Oversubscription(
    const std::string& name) const {
  const PoolId id = FindPool(name);
  if (id == kInvalidPoolId) return Status::NotFound("pool: " + name);
  const Pool& pool = PoolAt(id);
  const double over = pool.used - pool.capacity;
  return over > 0 ? over : 0.0;
}

Result<double> AdmissionController::SetPoolCapacity(const std::string& name,
                                                    double capacity) {
  if (capacity < 0) {
    return Status::InvalidArgument("pool capacity must be >= 0: " + name);
  }
  const PoolId id = FindPool(name);
  if (id == kInvalidPoolId) return Status::NotFound("pool: " + name);
  Pool& pool = PoolAt(id);
  if (capacity < pool.capacity) {
    ++stats_.revocations;
    if (tracer_ != nullptr) {
      tracer_->Event("sched", "pool_revoked", name,
                     std::to_string(pool.capacity) + " -> " +
                         std::to_string(capacity));
    }
  }
  pool.capacity = capacity;
  const double over = pool.used - capacity;
  return over > 0 ? over : 0.0;
}

Result<AdmissionTicket> AdmissionController::Admit(
    const std::vector<ResourceDemand>& demands) {
  // Intern up front so unknown pools and negative amounts fail before any
  // accounting, preserving the all-or-nothing contract.
  std::vector<PooledDemand> interned;
  interned.reserve(demands.size());
  for (const auto& d : demands) {
    if (d.amount < 0) {
      return Status::InvalidArgument("negative demand on pool " + d.pool);
    }
    const PoolId id = FindPool(d.pool);
    if (id == kInvalidPoolId) {
      return Status::NotFound("pool: " + d.pool);
    }
    interned.push_back(PooledDemand{id, d.amount});
  }
  return Admit(interned);
}

Result<AdmissionTicket> AdmissionController::Admit(
    const std::vector<PooledDemand>& demands) {
  // Validate first so failure reserves nothing.
  for (const auto& d : demands) {
    if (!ValidId(d.pool)) {
      return Status::NotFound("pool id " + std::to_string(d.pool));
    }
    if (d.amount < 0) {
      return Status::InvalidArgument("negative demand on pool " +
                                     PoolAt(d.pool).name);
    }
  }
  // Demands on the same pool are summed: sort a scratch copy by id and
  // merge adjacent runs (ids are dense ints, so this stays cache-friendly).
  std::vector<PooledDemand> totals(demands);
  std::sort(totals.begin(), totals.end(),
            [](const PooledDemand& a, const PooledDemand& b) {
              return a.pool < b.pool;
            });
  size_t out = 0;
  for (size_t i = 0; i < totals.size(); ++i) {
    if (out > 0 && totals[out - 1].pool == totals[i].pool) {
      totals[out - 1].amount += totals[i].amount;
    } else {
      totals[out++] = totals[i];
    }
  }
  totals.resize(out);
  for (const auto& d : totals) {
    const Pool& pool = PoolAt(d.pool);
    // Small epsilon tolerance so rate arithmetic at the boundary admits.
    if (pool.used + d.amount > pool.capacity * (1 + 1e-9)) {
      ++stats_.rejected;
      if (tracer_ != nullptr) {
        tracer_->Event("sched", "admission_rejected", pool.name,
                       "short by " +
                           std::to_string(d.amount -
                                          (pool.capacity - pool.used)));
      }
      return Status::ResourceExhausted(
          "pool " + pool.name + " has " +
          std::to_string(pool.capacity - pool.used) + " of " +
          std::to_string(d.amount) + " required");
    }
  }
  for (const auto& d : totals) {
    PoolAt(d.pool).used += d.amount;
  }
  AdmissionTicket ticket;
  ticket.active_ = true;
  ticket.id_ = next_ticket_id_++;
  ticket.demands_ = std::move(totals);
  ++stats_.admitted;
  if (tracer_ != nullptr) {
    tracer_->Event("sched", "admitted", "ticket " + std::to_string(ticket.id_),
                   std::to_string(ticket.demands_.size()) + " demands");
  }
  return ticket;
}

void AdmissionController::Release(AdmissionTicket* ticket) {
  if (ticket == nullptr || !ticket->active_) return;
  for (const auto& d : ticket->demands_) {
    if (!ValidId(d.pool)) continue;
    Pool& pool = PoolAt(d.pool);
    pool.used -= d.amount;
    if (pool.used < 0) {
      // The clamp keeps the pool sane, but a real deficit means something
      // released more than it reserved — count it instead of hiding it.
      if (pool.used < -ReleaseEpsilon(pool.capacity)) {
        ++stats_.over_releases;
        if (tracer_ != nullptr) {
          tracer_->Event("sched", "over_release", pool.name,
                         "used clamped from " + std::to_string(pool.used) +
                             " to 0");
        }
      }
      pool.used = 0;
    }
  }
  ticket->active_ = false;
  ticket->demands_.clear();
}

Result<AdmissionTicket> AdmissionController::Readmit(
    AdmissionTicket* old_ticket, const std::vector<ResourceDemand>& demands) {
  Release(old_ticket);
  auto ticket = Admit(demands);
  if (ticket.ok()) {
    ++stats_.readmitted;
  }
  return ticket;
}

void AdmissionController::BindObservability(obs::MetricsRegistry* registry,
                                            obs::Tracer* tracer) {
  tracer_ = tracer;
  counters_.Bind(
      registry,
      {{"avdb_sched_admission_admitted_total", "admission requests granted",
        &stats_.admitted},
       {"avdb_sched_admission_rejected_total",
        "admission requests refused on a pool shortfall", &stats_.rejected},
       {"avdb_sched_admission_readmitted_total",
        "reduced-demand re-admissions after revocation", &stats_.readmitted},
       {"avdb_sched_admission_revocations_total",
        "pool capacity reductions mid-run", &stats_.revocations},
       {"avdb_sched_admission_over_releases_total",
        "releases clamped at zero (double-release bugs)",
        &stats_.over_releases}});
}

}  // namespace avdb
