#include "simt/fault.hpp"

#include <chrono>
#include <sstream>
#include <thread>

#include "common/hash.hpp"
#include "simt/device.hpp"

namespace tspopt::simt {

namespace {

// SplitMix64 finalizer — a stateless 64-bit mixer, good enough to turn
// (seed, device, launch) into an independent uniform draw per launch.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool label_matches(const std::string& pattern, const std::string& label) {
  return pattern == "*" || pattern.empty() || pattern == label;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kLaunchFailure: return "launch-failure";
    case FaultKind::kHang: return "hang";
    case FaultKind::kCorruption: return "corruption";
  }
  return "?";
}

bool FaultSpec::matches(const std::string& label, std::uint64_t launch) const {
  if (!label_matches(device, label)) return false;
  if (launch < first_launch) return false;
  if (count == kForever) return true;
  return launch - first_launch < count;
}

FaultPlan& FaultPlan::inject_random(std::string device, FaultKind kind,
                                    double probability) {
  TSPOPT_CHECK_MSG(kind != FaultKind::kNone, "random fault must name a kind");
  TSPOPT_CHECK_MSG(probability >= 0.0 && probability <= 1.0,
                   "fault probability " << probability << " outside [0, 1]");
  random_.push_back({std::move(device), kind, probability});
  return *this;
}

FaultKind FaultPlan::decide(const std::string& device_label,
                            std::uint64_t launch) const {
  for (const FaultSpec& spec : specs_) {
    if (spec.matches(device_label, launch)) return spec.kind;
  }
  for (std::size_t r = 0; r < random_.size(); ++r) {
    const RandomSpec& spec = random_[r];
    if (!label_matches(spec.device, device_label)) continue;
    std::uint64_t draw = mix64(seed_ ^ fnv1a(device_label) ^
                               (launch * 0x9E3779B97F4A7C15ULL) ^ (r << 56));
    double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
    if (u < spec.probability) return spec.kind;
  }
  return FaultKind::kNone;
}

void FaultInjector::before_launch(Device& device, std::uint64_t launch) const {
  FaultKind kind = plan_.decide(device.label(), launch);
  switch (kind) {
    case FaultKind::kNone:
      return;
    case FaultKind::kLaunchFailure: {
      device.counters().launch_failures.fetch_add(1,
                                                  std::memory_order_relaxed);
      std::ostringstream os;
      os << "injected launch failure on " << device.label() << " (launch #"
         << launch << ")";
      throw DeviceError(kind, device.label(), launch, os.str());
    }
    case FaultKind::kHang: {
      // The kernel never completes; the driver watchdog reclaims the device
      // after the spec's deadline. Simulate the stall, then report it.
      double deadline_ms = device.spec().kernel_watchdog_ms;
      if (deadline_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(deadline_ms));
      }
      device.counters().hangs.fetch_add(1, std::memory_order_relaxed);
      std::ostringstream os;
      os << "injected hang on " << device.label() << " (launch #" << launch
         << "): watchdog deadline " << deadline_ms << " ms exceeded";
      throw DeviceError(kind, device.label(), launch, os.str());
    }
    case FaultKind::kCorruption:
      // The launch itself "succeeds"; the damage shows up in the data. The
      // device mangles the next result readback (Buffer::copy_to_host).
      device.arm_readback_corruption();
      return;
  }
}

}  // namespace tspopt::simt
