#include "dram/scheduler.hpp"

#include "common/error.hpp"
#include "common/snapshot.hpp"

namespace edsim::dram {

std::unique_ptr<Scheduler> Scheduler::make(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs:
      return std::make_unique<FcfsScheduler>();
    case SchedulerKind::kFcfsPerBank:
      return std::make_unique<FcfsPerBankScheduler>();
    case SchedulerKind::kFrFcfs:
      return std::make_unique<FrFcfsScheduler>();
    case SchedulerKind::kReadFirst:
      return std::make_unique<ReadFirstScheduler>();
    case SchedulerKind::kTdm:
      return std::make_unique<TdmScheduler>(64, 4);
  }
  return std::make_unique<FrFcfsScheduler>();
}

std::unique_ptr<Scheduler> Scheduler::make(const DramConfig& cfg) {
  if (cfg.scheduler == SchedulerKind::kTdm) {
    return std::make_unique<TdmScheduler>(cfg.tdm_slot_cycles,
                                          cfg.tdm_clients);
  }
  return make(cfg.scheduler);
}

ReadFirstScheduler::ReadFirstScheduler(unsigned high_watermark,
                                       unsigned low_watermark,
                                       std::uint64_t starvation_cap)
    : high_watermark_(high_watermark),
      low_watermark_(low_watermark),
      starvation_cap_(starvation_cap) {
  require(low_watermark_ < high_watermark_,
          "read-first scheduler: watermarks must satisfy low < high");
}

void ReadFirstScheduler::save(SnapshotWriter& w) const {
  w.boolean(draining_);
}

void ReadFirstScheduler::load(SnapshotReader& r) { draining_ = r.boolean(); }

TdmScheduler::TdmScheduler(unsigned slot_cycles, unsigned num_slots)
    : slot_cycles_(slot_cycles), num_slots_(num_slots) {
  require(slot_cycles_ >= 1, "tdm scheduler: slot_cycles must be >= 1");
  require(num_slots_ >= 1, "tdm scheduler: num_slots must be >= 1");
}

}  // namespace edsim::dram
