#include "tsp/catalog.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "tsp/generator.hpp"

namespace tspopt {

namespace {

std::vector<CatalogEntry> build_paper_catalog() {
  using F = PointFamily;
  // Sizes are the paper's; kernel/total times are the legible Table II
  // (GTX 680, CUDA) entries in microseconds.
  return {
      {"berlin52", 52, F::kReal, 20, 81},
      {"kroE100", 100, F::kUniform, 21, 82},
      {"ch130", 130, F::kUniform, 21, 82},
      {"ch150", 150, F::kUniform, 23, 84},
      {"kroA200", 200, F::kUniform, 24, 85},
      {"ts225", 225, F::kGrid, 24, 85},
      {"pr226", 226, F::kClustered, 26, 87},
      {"pr439", 439, F::kClustered, 32, 93},
      {"rat783", 783, F::kGrid, 53, 115},
      {"vm1084", 1084, F::kUniform, 80, 142},
      {"pr2392", 2392, F::kClustered, 299, 363},
      {"pcb3038", 3038, F::kClustered, 481, 547},
      {"fl3795", 3795, F::kClustered, 723, 788},
      {"fnl4461", 4461, F::kGrid, 746, 815},
      {"rl5915", 5915, F::kUniform, 1009, 1079},
      {"pla7397", 7397, F::kClustered, 1547, 1616},
      {"usa13509", 13509, F::kUniform, 4728, 4805},
      {"d15112", 15112, F::kGrid, 5963, 6043},
      {"d18512", 18512, F::kGrid, 8928, 9014},
      {"sw24978", 24978, F::kGrid, -1, -1},
      {"pla33810", 33810, F::kClustered, -1, -1},
      {"pla85900", 85900, F::kClustered, -1, -1},
      {"sra104815", 104815, F::kUniform, -1, -1},
      {"usa115475", 115475, F::kUniform, -1, -1},
      {"ara238025", 238025, F::kUniform, -1, -1},
      {"lra498378", 498378, F::kUniform, -1, -1},
      {"lrb744710", 744710, F::kUniform, -1, -1},
  };
}

std::vector<CatalogEntry> build_table1_catalog() {
  // Table I lists these 13 instances (kroE100 ... fnl4461).
  const char* names[] = {"kroE100", "ch130",   "ch150",  "kroA200", "ts225",
                         "pr226",   "pr439",   "rat783", "vm1084",  "pr2392",
                         "pcb3038", "fl3795",  "fnl4461"};
  std::vector<CatalogEntry> out;
  for (const char* name : names) {
    auto e = find_catalog_entry(name);
    TSPOPT_CHECK(e.has_value());
    out.push_back(*e);
  }
  return out;
}

}  // namespace

const std::vector<CatalogEntry>& paper_catalog() {
  static const std::vector<CatalogEntry> catalog = build_paper_catalog();
  return catalog;
}

const std::vector<CatalogEntry>& table1_catalog() {
  static const std::vector<CatalogEntry> catalog = build_table1_catalog();
  return catalog;
}

std::optional<CatalogEntry> find_catalog_entry(const std::string& name) {
  for (const CatalogEntry& e : paper_catalog()) {
    if (e.name == name) return e;
  }
  return std::nullopt;
}

Instance make_catalog_instance(const CatalogEntry& entry) {
  // A stable per-instance generator seed from the name.
  std::uint64_t seed = fnv1a(entry.name);
  switch (entry.family) {
    case PointFamily::kReal:
      TSPOPT_CHECK_MSG(entry.name == "berlin52",
                       "only berlin52 ships with real data");
      return berlin52();
    case PointFamily::kUniform:
      return generate_uniform(entry.name, entry.n, seed);
    case PointFamily::kClustered:
      return generate_clustered(entry.name, entry.n,
                                std::max(4, entry.n / 300), seed);
    case PointFamily::kGrid:
      return generate_grid(entry.name, entry.n, seed);
  }
  TSPOPT_CHECK(false);
  return berlin52();  // unreachable
}

Instance berlin52() {
  // Genuine TSPLIB berlin52 coordinates (Reinelt 1991); EUC_2D, optimal
  // tour length 7542.
  static const Point kPoints[52] = {
      {565, 575},   {25, 185},    {345, 750},  {945, 685},  {845, 655},
      {880, 660},   {25, 230},    {525, 1000}, {580, 1175}, {650, 1130},
      {1605, 620},  {1220, 580},  {1465, 200}, {1530, 5},   {845, 680},
      {725, 370},   {145, 665},   {415, 635},  {510, 875},  {560, 365},
      {300, 465},   {520, 585},   {480, 415},  {835, 625},  {975, 580},
      {1215, 245},  {1320, 315},  {1250, 400}, {660, 180},  {410, 250},
      {420, 555},   {575, 665},   {1150, 1160},{700, 580},  {685, 595},
      {685, 610},   {770, 610},   {795, 645},  {720, 635},  {760, 650},
      {475, 960},   {95, 260},    {875, 920},  {700, 500},  {555, 815},
      {830, 485},   {1170, 65},   {830, 610},  {605, 625},  {595, 360},
      {1340, 725},  {1740, 245},
  };
  return Instance("berlin52", Metric::kEuc2D,
                  std::vector<Point>(std::begin(kPoints), std::end(kPoints)));
}

}  // namespace tspopt
