#include "cpu/memory_backend.hpp"

#include "common/error.hpp"
#include "dram/presets.hpp"
#include "phy/interface_model.hpp"

namespace edsim::cpu {

MemoryBackend::MemoryBackend(const Params& p)
    : params_(p), controller_(p.dram) {
  require(p.fixed_overhead_ns >= 0.0, "backend: negative overhead");
}

double MemoryBackend::access_ns(std::uint64_t addr, bool write,
                                unsigned line_bytes) {
  const unsigned burst = controller_.config().bytes_per_access();
  const unsigned requests = (line_bytes + burst - 1) / burst;
  const std::uint64_t start = controller_.cycle();

  // At most one burst enters the queue per cycle; then the channel runs
  // until every burst has completed.
  for (std::uint64_t submitted = 0; submitted < requests;) {
    if (!controller_.queue_full()) {
      dram::Request r;
      r.type = write ? dram::AccessType::kWrite : dram::AccessType::kRead;
      r.addr = addr + submitted * burst;
      if (controller_.enqueue(r)) ++submitted;
    }
    controller_.tick();
  }
  controller_.drain();
  std::uint64_t done_cycle = start;
  for (const auto& rq : controller_.drain_completed()) {
    done_cycle = std::max(done_cycle, rq.done_cycle);
  }
  const double cycles = static_cast<double>(done_cycle - start);
  return cycles * controller_.config().clock.period_ns() +
         params_.fixed_overhead_ns;
}

double MemoryBackend::probe_latency_ns(unsigned line_bytes) {
  // Quiesce: let any pending refresh complete, then idle long enough that
  // open rows are not an artifact of the previous access (precharge-all by
  // touching nothing: we simply measure a fresh row in a far-away bank
  // region — address 0 after a long idle with closed rows is equivalent
  // for a probe. To be deterministic we measure a never-touched address.)
  static constexpr std::uint64_t kFarAddr = 0;
  controller_.tick_until(controller_.cycle() + 1000);
  return access_ns(kFarAddr, /*write=*/false, line_bytes);
}

double MemoryBackend::energy_j() const {
  const auto& s = controller_.stats();
  const double bits = static_cast<double>(s.bytes_transferred) * 8.0;
  const double core_j =
      static_cast<double>(s.activations) *
          params_.core_energy.act_nj(params_.dram.page_bytes) * 1e-9 +
      bits * params_.core_energy.rdwr_pj_per_bit * 1e-12 +
      static_cast<double>(s.refreshes) * params_.core_energy.refresh_nj *
          1e-9;
  return core_j + bits * params_.io_energy_per_bit_j;
}

MemoryBackend::Params off_chip_backend_params() {
  MemoryBackend::Params p;
  p.dram = dram::presets::sdram_pc100_64mbit();
  // Chipset crossing + arbitration + pad delays, both directions: the
  // off-chip L2-miss path of the era cost 60-90 ns beyond the DRAM core.
  p.fixed_overhead_ns = 70.0;
  const phy::InterfaceModel io(p.dram.interface_bits, p.dram.clock,
                               phy::off_chip_board());
  p.io_energy_per_bit_j = io.energy_per_bit_j();
  p.core_energy = power::core_energy_sdram_025um();
  p.name = "off-chip SDRAM (16-bit @100 MHz)";
  return p;
}

MemoryBackend::Params merged_edram_backend_params() {
  MemoryBackend::Params p;
  p.dram = dram::presets::edram_module(/*capacity_mbit=*/64,
                                       /*interface_bits=*/512,
                                       /*banks=*/8, /*page_bytes=*/4096);
  // A couple of ns for the on-chip interconnect.
  p.fixed_overhead_ns = 3.0;
  const phy::InterfaceModel io(p.dram.interface_bits, p.dram.clock,
                               phy::on_chip_wire());
  p.io_energy_per_bit_j = io.energy_per_bit_j();
  p.core_energy = power::core_energy_sdram_025um();
  p.name = "merged eDRAM (512-bit @143 MHz)";
  return p;
}

}  // namespace edsim::cpu
