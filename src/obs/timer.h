// RAII stage-timing span: measures the enclosing scope on the steady clock
// and records the elapsed microseconds into a registry histogram on exit.
//
//   {
//     obs::ScopedTimer span(config.stats, "funnel.assess.impact_set_us");
//     report.impact_set = identify_impact_set(change, topo_);
//   }
//
// A null registry skips even the clock read, so an uninstrumented run pays
// one pointer test per span. The name must outlive the timer — call sites
// pass string literals.
#pragma once

#include <chrono>

#include "obs/registry.h"

namespace funnel::obs {

class ScopedTimer {
 public:
  ScopedTimer(const Registry* registry, const char* name)
      : registry_(registry), name_(name) {
    if (registry_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~ScopedTimer() {
    if (registry_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_->observe(
        name_,
        std::chrono::duration<double, std::micro>(elapsed).count());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const Registry* registry_;
  const char* name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace funnel::obs
