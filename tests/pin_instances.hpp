// The instance set the constructive-start pins run over: every EUC_2D
// catalog instance up to pla33810, one 10k instance per generator family,
// and perfbench solve-large's 50k clustered instance.
#pragma once

#include <vector>

#include "tsp/catalog.hpp"
#include "tsp/generator.hpp"

namespace tspopt {

inline std::vector<Instance> pin_instances() {
  std::vector<Instance> out;
  for (const CatalogEntry& entry : paper_catalog()) {
    if (entry.n > 34000) continue;
    Instance inst = make_catalog_instance(entry);
    if (inst.metric() == Metric::kEuc2D) out.push_back(std::move(inst));
  }
  out.push_back(generate_uniform("uniform10k", 10000, 1));
  out.push_back(generate_clustered("clustered10k", 10000, 25, 1));
  out.push_back(generate_grid("grid10k", 10000, 1));
  out.push_back(generate_clustered("large50k", 50000, 125, 1));
  return out;
}

}  // namespace tspopt
