// A simulated compute device: spec + work counters + a block scheduler.
//
// The functional contract mirrors CUDA/OpenCL: host code allocates device
// buffers, copies data across an explicit (metered) boundary, launches
// phase-structured block kernels, and reads results back. Blocks execute
// concurrently on the process thread pool; threads within a block execute
// in tid order between barriers (the phase boundaries), which is exactly
// the ordering the paper's kernels rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "simt/counters.hpp"
#include "simt/device_spec.hpp"
#include "simt/fault.hpp"
#include "simt/shared_memory.hpp"
#include "simt/types.hpp"

namespace tspopt::simt {

class Device;

// Everything a kernel phase can see about its block. Mirrors the CUDA
// built-ins (blockIdx/blockDim/gridDim) plus the dynamic shared memory
// arena and the device work counters.
struct BlockCtx {
  std::uint32_t block_idx = 0;
  LaunchConfig cfg;
  SharedMemory* shared = nullptr;
  PerfCounters* counters = nullptr;
  const DeviceSpec* spec = nullptr;

  // Kernel-managed pointer into the shared arena, set in block_begin so the
  // later phases can find the block's staged data (the moral equivalent of
  // named __shared__ variables).
  void* state = nullptr;

  std::uint64_t global_thread(std::uint32_t tid) const {
    return static_cast<std::uint64_t>(block_idx) * cfg.block_dim + tid;
  }
};

// A kernel is phase-structured: block_begin (cooperative load, runs once
// per block), thread (per-thread body, called for each tid), block_end
// (reduction + global writeback). The barriers a CUDA kernel would place
// between these phases are implicit. Kernel methods are const: mutable
// state lives in shared or device memory, as on real hardware.
template <typename K>
concept BlockKernel = requires(const K k, BlockCtx& ctx, std::uint32_t tid) {
  k.block_begin(ctx);
  k.thread(ctx, tid);
  k.block_end(ctx);
};

class Device {
 public:
  explicit Device(DeviceSpec spec, ThreadPool* pool = nullptr)
      : spec_(std::move(spec)), label_(spec_.name),
        pool_(pool != nullptr ? pool : &ThreadPool::shared()) {}

  const DeviceSpec& spec() const { return spec_; }
  PerfCounters& counters() { return counters_; }
  const PerfCounters& counters() const { return counters_; }
  ThreadPool& pool() { return *pool_; }

  // A host-assigned identity for this device instance. Defaults to the
  // spec name; set a unique label when several identical cards are present
  // so fault plans and health reports can tell them apart.
  const std::string& label() const { return label_; }
  void set_label(std::string label) {
    label_ = std::move(label);
    launch_latency_ = nullptr;  // re-resolve under the new label
  }

  // Per-device launch latency histogram, registered lazily in the global
  // metrics registry as simt.launch_us{device=<label>}. The pointer is
  // cached so the per-launch cost is one steady-clock pair + one atomic
  // bucket increment.
  obs::Histogram& launch_latency() {
    if (launch_latency_ == nullptr) {
      launch_latency_ = &obs::Registry::global().histogram(
          "simt.launch_us", {50, 100, 250, 500, 1000, 2500, 5000, 10000,
                             25000, 50000, 100000, 500000},
          {{"device", label_}});
    }
    return *launch_latency_;
  }

  // Fault injection (nullptr = healthy device). The injector is borrowed
  // and may be shared between devices; it is consulted at every launch.
  void set_fault_injector(const FaultInjector* injector) {
    injector_ = injector;
  }
  const FaultInjector* fault_injector() const { return injector_; }

  // Launch attempts so far (including failed ones) — the per-device
  // ordinal that FaultPlan windows are expressed in.
  std::uint64_t launches_attempted() const {
    return launch_ordinal_.load(std::memory_order_relaxed);
  }

  // Corruption faults don't fail the launch; they mangle the next result
  // readback. Buffer::copy_to_host consumes the armed flag.
  void arm_readback_corruption() {
    corrupt_next_readback_.store(true, std::memory_order_relaxed);
  }
  bool take_readback_corruption() {
    return corrupt_next_readback_.exchange(false, std::memory_order_relaxed);
  }

  // Default launch geometry: the paper's gridDim = SM count, 1024 threads.
  LaunchConfig default_config(std::uint32_t shared_bytes = 0) const {
    LaunchConfig cfg;
    cfg.grid_dim = spec_.preferred_grid_dim;
    cfg.block_dim = spec_.max_block_dim;
    cfg.shared_bytes = shared_bytes;
    return cfg;
  }

  template <BlockKernel K>
  void launch(const LaunchConfig& cfg, const K& kernel) {
    TSPOPT_CHECK_MSG(cfg.block_dim >= 1 && cfg.block_dim <= spec_.max_block_dim,
                     "block_dim " << cfg.block_dim << " exceeds device limit "
                                  << spec_.max_block_dim);
    TSPOPT_CHECK(cfg.grid_dim >= 1);
    TSPOPT_CHECK_MSG(cfg.shared_bytes <= spec_.shared_mem_bytes,
                     "requested " << cfg.shared_bytes
                                  << " B shared memory, device has "
                                  << spec_.shared_mem_bytes);
    std::uint64_t ordinal =
        launch_ordinal_.fetch_add(1, std::memory_order_relaxed);
    obs::Span span = obs::Tracer::global().span("simt.launch", "simt");
    if (span) {
      span.arg("device", label_);
      span.arg("launch", ordinal);
      span.arg("grid_dim", cfg.grid_dim);
      span.arg("block_dim", cfg.block_dim);
    }
    WallTimer launch_timer;
    if (injector_ != nullptr) {
      try {
        injector_->before_launch(*this, ordinal);  // may throw DeviceError
      } catch (const DeviceError& e) {
        obs::Tracer::global().instant(
            "simt.fault", "simt",
            {{"device", label_}, {"kind", to_string(e.kind())},
             {"launch", std::to_string(ordinal)}});
        obs::Log::global()
            .event(obs::LogLevel::kWarn, "simt.fault")
            .arg("device", label_)
            .arg("kind", to_string(e.kind()))
            .arg("launch", ordinal)
            .arg("what", e.what());
        throw;
      }
    }
    counters_.kernel_launches.fetch_add(1, std::memory_order_relaxed);

    std::atomic<std::uint32_t> next_block{0};
    pool_->run_on_all([&](std::size_t) {
      // One shared-memory arena per worker *thread*, reused across blocks,
      // kernels and launches (grow-mostly): in the ILS steady state a
      // launch allocates no arena storage.
      SharedMemory& shared = SharedMemory::thread_arena();
      shared.reset();
      shared.set_capacity(spec_.shared_mem_bytes);
      for (;;) {
        std::uint32_t b = next_block.fetch_add(1, std::memory_order_relaxed);
        if (b >= cfg.grid_dim) return;
        shared.reset();
        BlockCtx ctx{b, cfg, &shared, &counters_, &spec_};
        kernel.block_begin(ctx);
        for (std::uint32_t tid = 0; tid < cfg.block_dim; ++tid) {
          kernel.thread(ctx, tid);
        }
        kernel.block_end(ctx);
        counters_.shared_bytes_allocated.fetch_add(
            shared.used(), std::memory_order_relaxed);
      }
    });
    launch_latency().observe(launch_timer.micros());
  }

 private:
  DeviceSpec spec_;
  std::string label_;
  ThreadPool* pool_;
  PerfCounters counters_;
  const FaultInjector* injector_ = nullptr;
  obs::Histogram* launch_latency_ = nullptr;  // cached registry instrument
  std::atomic<std::uint64_t> launch_ordinal_{0};
  std::atomic<bool> corrupt_next_readback_{false};
};

}  // namespace tspopt::simt
