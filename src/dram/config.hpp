#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "dram/timing.hpp"

namespace edsim::dram {

/// What happens to a row after a column access completes.
enum class PagePolicy {
  kOpen,     ///< leave the row open (exploits the row-as-cache effect, §4)
  kClosed,   ///< auto-precharge after every access
  kTimeout,  ///< leave open, close after `page_timeout_cycles` of idleness
             ///< (adaptive: hit-friendly under locality, miss-friendly
             ///< under churn)
};

/// Request scheduling discipline (§4: access schemes are a key free
/// parameter of the embedded design space).
enum class SchedulerKind {
  kFcfs,         ///< strict in-order service: head-of-line blocks everything
  kFcfsPerBank,  ///< in-order per bank, banks proceed independently
  kFrFcfs,       ///< first-ready FCFS: row hits first, then oldest
  kReadFirst,    ///< FR-FCFS with read priority and write-drain bursts
  kTdm,          ///< real-time TDM: fixed client time slots, starvation-free
};

/// Human-readable policy / mapping names (fuzz reproducer lines, tables).
const char* to_string(SchedulerKind kind);

/// How a flat byte address is split into (bank, row, column).
enum class AddressMapping {
  kRowBankCol,   ///< col LSB, then bank: streams interleave across banks
  kBankRowCol,   ///< bank MSB: a stream stays in one bank across rows
  kRowColBank,   ///< bank bits right above the burst offset: fine interleave
  kPermutedBank, ///< row:bank:col with bank XOR-hashed by low row bits —
                 ///< breaks power-of-two stride pathologies
};

const char* to_string(AddressMapping mapping);

/// Full description of one DRAM channel (device or embedded macro).
///
/// The organization parameters — number of banks, page length, interface
/// width — are exactly the "free parameters" the paper says an eDRAM
/// designer gains over commodity parts (§3).
struct DramConfig {
  // --- geometry -----------------------------------------------------------
  unsigned banks = 4;
  unsigned rows_per_bank = 4096;
  unsigned page_bytes = 1024;      ///< row (page) length in bytes
  unsigned interface_bits = 16;    ///< data bus width
  unsigned transfers_per_clock = 1;  ///< 1 = SDR, 2 = DDR/2n-prefetch
  // --- behaviour ----------------------------------------------------------
  TimingParams timing{};
  Frequency clock{100.0};
  PagePolicy page_policy = PagePolicy::kOpen;
  unsigned page_timeout_cycles = 48;  ///< kTimeout: idle time before close
  SchedulerKind scheduler = SchedulerKind::kFrFcfs;
  AddressMapping mapping = AddressMapping::kRowBankCol;
  unsigned queue_depth = 32;
  // --- TDM arbitration (kTdm only) -----------------------------------------
  unsigned tdm_slot_cycles = 64;  ///< length of one client time slot
  unsigned tdm_clients = 4;       ///< slots per rotation; owner = id % slots
  bool refresh_enabled = true;
  unsigned refresh_burst = 1;  ///< REFs issued back to back (1 = distributed)
  // --- power management (§2: portables adopt eDRAM first) ------------------
  bool powerdown_enabled = false;  ///< enter power-down when idle
  unsigned powerdown_idle_cycles = 32;  ///< idle streak before entry
  unsigned tXP = 3;  ///< power-down exit to first command
  // --- reliability (runtime ECC datapath) ----------------------------------
  bool ecc_enabled = false;        ///< SEC-DED on the column datapath
  unsigned ecc_word_bits = 64;     ///< data bits per ECC word ((72,64) code)
  unsigned ecc_latency_cycles = 1; ///< decode pipeline added to read latency
  // --- watchdog (starvation detection) -------------------------------------
  bool watchdog_enabled = false;   ///< police queued-request age
  unsigned watchdog_cycles = 100'000;  ///< age budget before escalation
  unsigned watchdog_retries = 3;   ///< priority-boost retries before error

  void validate() const;

  /// Content hash over every field that can influence simulation
  /// behaviour. Two configs hash equal iff a simulation driven by them is
  /// cycle-for-cycle identical; keys the evaluator's shared channels.
  std::uint64_t content_hash() const;

  // --- derived quantities --------------------------------------------------
  unsigned bytes_per_beat() const { return interface_bits / 8; }
  unsigned bytes_per_access() const {
    return bytes_per_beat() * timing.burst_length;
  }
  unsigned columns_per_row() const { return page_bytes / bytes_per_beat(); }
  /// Clock cycles the data bus is occupied by one burst.
  unsigned data_cycles_per_access() const {
    return (timing.burst_length + transfers_per_clock - 1) /
           transfers_per_clock;
  }
  Capacity capacity() const {
    return Capacity::bytes(static_cast<std::uint64_t>(banks) * rows_per_bank *
                           page_bytes);
  }
  Bandwidth peak_bandwidth() const {
    return edsim::peak_bandwidth(interface_bits, clock, transfers_per_clock);
  }
  std::string describe() const;
};

}  // namespace edsim::dram
