#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "obs/json.hpp"
#include "serve/job.hpp"
#include "solver/delta.hpp"
#include "solver/twoopt_generic.hpp"
#include "solver/twoopt_simd.hpp"
#include "tsp/catalog.hpp"
#include "tsp/generator.hpp"
#include "tsp/tsplib.hpp"

namespace tspopt {
namespace {

Instance parse(const std::string& text) {
  std::istringstream in(text);
  return parse_tsplib(in);
}

TEST(TsplibParser, MinimalEuc2D) {
  Instance inst = parse(
      "NAME : demo\n"
      "TYPE : TSP\n"
      "DIMENSION : 3\n"
      "EDGE_WEIGHT_TYPE : EUC_2D\n"
      "NODE_COORD_SECTION\n"
      "1 0 0\n"
      "2 3 0\n"
      "3 0 4\n"
      "EOF\n");
  EXPECT_EQ(inst.name(), "demo");
  EXPECT_EQ(inst.n(), 3);
  EXPECT_EQ(inst.metric(), Metric::kEuc2D);
  EXPECT_EQ(inst.dist(0, 1), 3);
  EXPECT_EQ(inst.dist(1, 2), 5);
}

TEST(TsplibParser, HandlesKeywordsWithoutSpaces) {
  Instance inst = parse(
      "NAME:demo2\n"
      "TYPE:TSP\n"
      "DIMENSION:3\n"
      "EDGE_WEIGHT_TYPE:CEIL_2D\n"
      "NODE_COORD_SECTION\n"
      "1 0 0\n2 1 1\n3 2 2\n"
      "EOF\n");
  EXPECT_EQ(inst.name(), "demo2");
  EXPECT_EQ(inst.metric(), Metric::kCeil2D);
  EXPECT_EQ(inst.dist(0, 1), 2);
}

TEST(TsplibParser, OutOfOrderNodeIndices) {
  Instance inst = parse(
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
      "3 0 4\n1 0 0\n2 3 0\nEOF\n");
  EXPECT_EQ(inst.point(0).x, 0.0f);
  EXPECT_EQ(inst.point(2).y, 4.0f);
}

TEST(TsplibParser, CommentsAndBlankLinesIgnored) {
  Instance inst = parse(
      "NAME : c\nCOMMENT : a comment : with colons\n\n"
      "TYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n\n"
      "NODE_COORD_SECTION\n1 0 0\n2 1 0\n3 0 1\nEOF\n");
  EXPECT_EQ(inst.n(), 3);
}

TEST(TsplibParser, ScientificAndDecimalCoordinates) {
  Instance inst = parse(
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
      "1 1.5e2 0.0\n2 -2.25 10\n3 3 4.5\nEOF\n");
  EXPECT_FLOAT_EQ(inst.point(0).x, 150.0f);
  EXPECT_FLOAT_EQ(inst.point(1).x, -2.25f);
}

TEST(TsplibParser, ExplicitFullMatrix) {
  Instance inst = parse(
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
      "EDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n"
      "0 1 2\n1 0 3\n2 3 0\nEOF\n");
  EXPECT_EQ(inst.metric(), Metric::kExplicit);
  EXPECT_EQ(inst.dist(0, 2), 2);
  EXPECT_EQ(inst.dist(1, 2), 3);
}

TEST(TsplibParser, ExplicitUpperRow) {
  Instance inst = parse(
      "DIMENSION : 4\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
      "EDGE_WEIGHT_FORMAT : UPPER_ROW\nEDGE_WEIGHT_SECTION\n"
      "1 2 3\n4 5\n6\nEOF\n");
  EXPECT_EQ(inst.dist(0, 1), 1);
  EXPECT_EQ(inst.dist(0, 3), 3);
  EXPECT_EQ(inst.dist(1, 2), 4);
  EXPECT_EQ(inst.dist(2, 3), 6);
  EXPECT_EQ(inst.dist(3, 2), 6);  // symmetric expansion
  EXPECT_EQ(inst.dist(2, 2), 0);
}

TEST(TsplibParser, ExplicitLowerDiagRow) {
  Instance inst = parse(
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
      "EDGE_WEIGHT_FORMAT : LOWER_DIAG_ROW\nEDGE_WEIGHT_SECTION\n"
      "0\n7 0\n8 9 0\nEOF\n");
  EXPECT_EQ(inst.dist(1, 0), 7);
  EXPECT_EQ(inst.dist(0, 2), 8);
  EXPECT_EQ(inst.dist(2, 1), 9);
}

TEST(TsplibParser, ExplicitUpperDiagRow) {
  Instance inst = parse(
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
      "EDGE_WEIGHT_FORMAT : UPPER_DIAG_ROW\nEDGE_WEIGHT_SECTION\n"
      "0 5 6\n0 7\n0\nEOF\n");
  EXPECT_EQ(inst.dist(0, 1), 5);
  EXPECT_EQ(inst.dist(0, 2), 6);
  EXPECT_EQ(inst.dist(1, 2), 7);
}

TEST(TsplibParser, ExplicitLowerRow) {
  Instance inst = parse(
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
      "EDGE_WEIGHT_FORMAT : LOWER_ROW\nEDGE_WEIGHT_SECTION\n"
      "4\n5 6\nEOF\n");
  EXPECT_EQ(inst.dist(1, 0), 4);
  EXPECT_EQ(inst.dist(2, 0), 5);
  EXPECT_EQ(inst.dist(2, 1), 6);
}

TEST(TsplibParser, RejectsAsymmetricType) {
  EXPECT_THROW(parse("TYPE : ATSP\nDIMENSION : 3\n"), CheckError);
}

TEST(TsplibParser, RejectsTruncatedCoordinates) {
  EXPECT_THROW(parse("DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n"
                     "NODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n"),
               CheckError);
}

TEST(TsplibParser, RejectsTruncatedMatrix) {
  EXPECT_THROW(parse("DIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
                     "EDGE_WEIGHT_FORMAT : FULL_MATRIX\n"
                     "EDGE_WEIGHT_SECTION\n0 1 2 1 0\nEOF\n"),
               CheckError);
}

TEST(TsplibParser, RejectsMissingDimension) {
  EXPECT_THROW(parse("EDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"),
               CheckError);
}

TEST(TsplibParser, RejectsOutOfRangeNodeIndex) {
  EXPECT_THROW(parse("DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n"
                     "NODE_COORD_SECTION\n1 0 0\n2 1 1\n7 2 2\nEOF\n"),
               CheckError);
}

TEST(TsplibParser, RejectsUnsupportedSections) {
  EXPECT_THROW(parse("DIMENSION : 3\nTOUR_SECTION\n"), CheckError);
}

TEST(TsplibWriter, RoundTripsThroughParser) {
  Instance original = generate_uniform("round", 40, 77);
  std::ostringstream out;
  write_tsplib(out, original);
  std::istringstream in(out.str());
  Instance reparsed = parse_tsplib(in);
  ASSERT_EQ(reparsed.n(), original.n());
  EXPECT_EQ(reparsed.name(), "round");
  EXPECT_EQ(reparsed.metric(), Metric::kEuc2D);
  for (std::int32_t a = 0; a < original.n(); ++a) {
    for (std::int32_t b = a + 1; b < original.n(); ++b) {
      ASSERT_EQ(reparsed.dist(a, b), original.dist(a, b));
    }
  }
}

TEST(TsplibWriter, RefusesExplicitInstances) {
  std::vector<std::int32_t> m(9, 1);
  Instance inst("x", m, 3);
  std::ostringstream out;
  EXPECT_THROW(write_tsplib(out, inst), CheckError);
}

TEST(TsplibFiles, SaveAndLoad) {
  Instance original = berlin52();
  std::string path = ::testing::TempDir() + "/berlin52_test.tsp";
  save_tsplib(path, original);
  Instance loaded = load_tsplib(path);
  EXPECT_EQ(loaded.n(), 52);
  EXPECT_EQ(loaded.dist(0, 1), original.dist(0, 1));
  std::remove(path.c_str());
}

TEST(TsplibFiles, LoadMissingFileThrows) {
  EXPECT_THROW(load_tsplib("/nonexistent/nope.tsp"), CheckError);
}

// ------------------------------------------------- coordinate bound --

// The length change of 2-opt move (i, j) on `tour`, summed in 64 bits.
std::int64_t wide_delta(const Instance& inst, const Tour& tour,
                        std::int32_t i, std::int32_t j) {
  std::int32_t n = tour.n();
  std::int32_t a = tour.city_at(i);
  std::int32_t b = tour.city_at(i + 1);
  std::int32_t c = tour.city_at(j);
  std::int32_t d = tour.city_at((j + 1) % n);
  return static_cast<std::int64_t>(inst.dist(a, c)) + inst.dist(b, d) -
         inst.dist(a, b) - inst.dist(c, d);
}

// The four corners of the coordinate box, each followed by a twin 64
// units inside it: tour edges alternate between twin pairs and long
// diagonals or sides, so moves swap two near-zero edges for two of the
// longest distances the bound admits, and back.
std::vector<std::array<double, 2>> box_coords(double b) {
  std::vector<std::array<double, 2>> out;
  for (std::array<double, 2> corner :
       {std::array<double, 2>{-b, -b}, {b, b}, {-b, b}, {b, -b}}) {
    out.push_back(corner);
    out.push_back({corner[0] - std::copysign(64.0, corner[0]), corner[1]});
  }
  return out;
}

std::vector<Point> box_points(double b) {
  std::vector<Point> out;
  for (const std::array<double, 2>& c : box_coords(b)) {
    out.push_back({static_cast<float>(c[0]), static_cast<float>(c[1])});
  }
  return out;
}

// At the bound every distance stays below 2^30, so the int32 deltas the
// engines compute equal the 64-bit sums for every move and metric.
TEST(CoordinateBound, ExtremeCornerDeltasAreExact) {
  const std::vector<Point> pts = box_points(kMaxAbsCoordinate);
  const Tour tour = Tour::identity(static_cast<std::int32_t>(pts.size()));
  for (Metric metric :
       {Metric::kEuc2D, Metric::kCeil2D, Metric::kMan2D, Metric::kMax2D}) {
    Instance inst("box", metric, pts);
    std::int64_t best = 0;
    std::int64_t worst = 0;
    for (std::int32_t i = 0; i + 1 < tour.n(); ++i) {
      for (std::int32_t j = i + 1; j < tour.n(); ++j) {
        std::int64_t want = wide_delta(inst, tour, i, j);
        best = std::min(best, want);
        worst = std::max(worst, want);
        if (metric == Metric::kEuc2D) {
          EXPECT_EQ(two_opt_delta(pts, i, j), want) << i << "," << j;
        }
      }
    }
    // The worst moves add two of the longest distances for two near-zero
    // ones: were the bound any looser, their deltas would wrap in int32.
    ASSERT_GT(worst, 900'000'000) << to_string(metric);
    ASSERT_LT(best, 0) << to_string(metric);
    TwoOptGeneric generic;
    EXPECT_EQ(generic.search(inst, tour).best.delta, best) << to_string(metric);
    if (metric == Metric::kEuc2D) {
      TwoOptSimd simd;
      EXPECT_EQ(simd.search(inst, tour).best.delta, best);
    }
  }
}

std::string box_tsplib(double b) {
  std::ostringstream text;
  text.precision(17);
  text << "NAME : box\nTYPE : TSP\nDIMENSION : 8\n"
       << "EDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n";
  std::vector<std::array<double, 2>> coords = box_coords(b);
  for (std::size_t i = 0; i < coords.size(); ++i) {
    text << i + 1 << ' ' << coords[i][0] << ' ' << coords[i][1] << '\n';
  }
  text << "EOF\n";
  return text.str();
}

std::string box_job(double b) {
  std::ostringstream text;
  text.precision(17);
  text << "{\"schema\": \"tspopt.job\", \"schema_version\": "
       << serve::kJobSchemaVersion << ", \"points\": [";
  std::vector<std::array<double, 2>> coords = box_coords(b);
  for (std::size_t i = 0; i < coords.size(); ++i) {
    text << (i == 0 ? "" : ", ") << '[' << coords[i][0] << ", "
         << coords[i][1] << ']';
  }
  text << "]}";
  return text.str();
}

// The TSPLIB parser and the wire admission accept the bound itself and
// reject anything past it (or non-finite) with CoordinateRangeError.
TEST(CoordinateBound, ParserAndAdmissionRejectBeyondTheBound) {
  const double at = kMaxAbsCoordinate;
  const double beyond = std::nextafter(kMaxAbsCoordinate, 1e300) + 1.0;

  EXPECT_EQ(parse(box_tsplib(at)).n(), 8);
  EXPECT_THROW(parse(box_tsplib(beyond)), CoordinateRangeError);
  EXPECT_THROW(parse(box_tsplib(1e9)), CoordinateRangeError);

  using serve::job_spec_from_json;
  EXPECT_EQ(job_spec_from_json(obs::json_parse(box_job(at))).points.size(),
            8u);
  EXPECT_THROW(job_spec_from_json(obs::json_parse(box_job(beyond))),
               CoordinateRangeError);
  EXPECT_THROW(job_spec_from_json(obs::json_parse(box_job(3e9))),
               CoordinateRangeError);

  EXPECT_THROW(check_coordinate(std::numeric_limits<double>::quiet_NaN(),
                                "x coordinate of point", 0),
               CoordinateRangeError);
  EXPECT_THROW(check_coordinate(-std::numeric_limits<double>::infinity(),
                                "x coordinate of point", 0),
               CoordinateRangeError);
}

}  // namespace
}  // namespace tspopt
