#include "tsp/tsplib.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace tspopt {
namespace {

// Malformed real-world files are the rule, not the exception: every parse
// failure must surface as a CheckError naming the offending line, never as
// UB, a std::sto* exception, or a multi-gigabyte allocation. The parser
// therefore reads strictly line-by-line through LineSource (which counts
// lines) and converts every number with bounds-checked helpers.

// DIMENSION guard: the biggest TSPLIB instance the paper touches is
// lrb744710; 10M leaves ample headroom while keeping a corrupted header
// from driving an absurd allocation.
constexpr std::int64_t kMaxDimension = 10'000'000;

std::string trim(const std::string& s) {
  auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  auto begin = std::find_if_not(s.begin(), s.end(), is_space);
  auto end = std::find_if_not(s.rbegin(), s.rend(), is_space).base();
  return (begin < end) ? std::string(begin, end) : std::string();
}

// Split "KEYWORD : value" / "KEYWORD: value" / bare "SECTION_NAME".
bool split_keyword(const std::string& line, std::string& key,
                   std::string& value) {
  auto colon = line.find(':');
  if (colon == std::string::npos) {
    key = trim(line);
    value.clear();
    return !key.empty();
  }
  key = trim(line.substr(0, colon));
  value = trim(line.substr(colon + 1));
  return !key.empty();
}

// Line-counting reader: every token the parser consumes is attributable
// to a 1-based source line for error reporting.
class LineSource {
 public:
  explicit LineSource(std::istream& in) : in_(in) {}

  bool next(std::string& line) {
    if (!std::getline(in_, line)) return false;
    ++line_no_;
    return true;
  }

  std::size_t line_no() const { return line_no_; }

 private:
  std::istream& in_;
  std::size_t line_no_ = 0;
};

// Whitespace-separated tokens drawn across lines (sections like
// EDGE_WEIGHT_SECTION wrap their numbers arbitrarily).
class TokenStream {
 public:
  explicit TokenStream(LineSource& source) : source_(source) {}

  bool next(std::string& token) {
    for (;;) {
      if (line_ >> token) return true;
      std::string raw;
      if (!source_.next(raw)) return false;
      line_.clear();
      line_.str(raw);
    }
  }

  std::size_t line_no() const { return source_.line_no(); }

 private:
  LineSource& source_;
  std::istringstream line_;
};

// std::from_chars rejects a leading '+', which stream extraction (the old
// parser) accepted; tolerate it for compatibility.
const char* skip_plus(const std::string& token) {
  return token.size() > 1 && token[0] == '+' ? token.data() + 1
                                             : token.data();
}

std::int64_t parse_int(const std::string& token, std::size_t line,
                       const char* what) {
  std::int64_t v = 0;
  const char* first = skip_plus(token);
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(first, last, v);
  TSPOPT_CHECK_MSG(ec == std::errc{} && ptr == last,
                   "line " << line << ": " << what << " is not an integer: '"
                           << token << "'");
  return v;
}

double parse_double(const std::string& token, std::size_t line,
                    const char* what) {
  double v = 0.0;
  const char* first = skip_plus(token);
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(first, last, v);
  TSPOPT_CHECK_MSG(ec == std::errc{} && ptr == last,
                   "line " << line << ": " << what << " is not a number: '"
                           << token << "'");
  TSPOPT_CHECK_MSG(std::isfinite(v),
                   "line " << line << ": " << what << " is not finite: '"
                           << token << "'");
  return v;
}

struct Header {
  std::string name = "unnamed";
  std::string type = "TSP";
  std::string edge_weight_type;
  std::string edge_weight_format;
  std::int64_t dimension = 0;
};

// Read `count` whitespace-separated edge weights that may span lines.
std::vector<std::int32_t> read_ints(TokenStream& tokens, std::size_t count) {
  std::vector<std::int32_t> out;
  out.reserve(count);
  std::string token;
  while (out.size() < count && tokens.next(token)) {
    std::int64_t v = parse_int(token, tokens.line_no(), "edge weight");
    TSPOPT_CHECK_MSG(v >= std::numeric_limits<std::int32_t>::min() &&
                         v <= std::numeric_limits<std::int32_t>::max(),
                     "line " << tokens.line_no() << ": edge weight " << v
                             << " out of 32-bit range");
    out.push_back(static_cast<std::int32_t>(v));
  }
  TSPOPT_CHECK_MSG(out.size() == count,
                   "line " << tokens.line_no()
                           << ": EDGE_WEIGHT_SECTION truncated: expected "
                           << count << " values, got " << out.size());
  return out;
}

std::vector<std::int32_t> expand_matrix(const std::string& format,
                                        const std::vector<std::int32_t>& raw,
                                        std::size_t n) {
  std::vector<std::int32_t> m(n * n, 0);
  auto at = [&](std::size_t r, std::size_t c) -> std::int32_t& {
    return m[r * n + c];
  };
  std::size_t idx = 0;
  if (format == "FULL_MATRIX") {
    TSPOPT_CHECK(raw.size() == n * n);
    m = raw;
  } else if (format == "UPPER_ROW") {
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = r + 1; c < n; ++c) at(r, c) = at(c, r) = raw[idx++];
  } else if (format == "LOWER_ROW") {
    for (std::size_t r = 1; r < n; ++r)
      for (std::size_t c = 0; c < r; ++c) at(r, c) = at(c, r) = raw[idx++];
  } else if (format == "UPPER_DIAG_ROW") {
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = r; c < n; ++c) at(r, c) = at(c, r) = raw[idx++];
  } else if (format == "LOWER_DIAG_ROW") {
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c <= r; ++c) at(r, c) = at(c, r) = raw[idx++];
  } else {
    TSPOPT_CHECK_MSG(false, "unsupported EDGE_WEIGHT_FORMAT: " << format);
  }
  return m;
}

std::size_t triangle_count(const std::string& format, std::size_t n,
                           std::size_t line) {
  if (format == "FULL_MATRIX") return n * n;
  if (format == "UPPER_ROW" || format == "LOWER_ROW") return n * (n - 1) / 2;
  if (format == "UPPER_DIAG_ROW" || format == "LOWER_DIAG_ROW")
    return n * (n + 1) / 2;
  TSPOPT_CHECK_MSG(false, "line " << line << ": unsupported "
                                  << "EDGE_WEIGHT_FORMAT: " << format);
  return 0;
}

}  // namespace

Instance parse_tsplib(std::istream& in) {
  Header header;
  std::vector<Point> points;
  std::vector<Point> display_points;
  std::vector<std::int32_t> matrix;
  bool saw_coords = false;
  bool saw_matrix = false;

  LineSource source(in);
  std::string line;
  while (source.next(line)) {
    line = trim(line);
    if (line.empty()) continue;
    std::string key, value;
    if (!split_keyword(line, key, value)) continue;
    const std::size_t at_line = source.line_no();

    if (key == "NAME") {
      header.name = value;
    } else if (key == "TYPE") {
      header.type = value;
      TSPOPT_CHECK_MSG(value == "TSP" || value == "tsp",
                       "line " << at_line << ": unsupported TYPE: " << value
                               << " (only symmetric TSP)");
    } else if (key == "COMMENT" || key == "NODE_COORD_TYPE" ||
               key == "DISPLAY_DATA_TYPE") {
      // informational only
    } else if (key == "DIMENSION") {
      header.dimension = parse_int(value, at_line, "DIMENSION");
      TSPOPT_CHECK_MSG(header.dimension >= 3,
                       "line " << at_line << ": DIMENSION must be >= 3, got "
                               << header.dimension);
      TSPOPT_CHECK_MSG(header.dimension <= kMaxDimension,
                       "line " << at_line << ": DIMENSION "
                               << header.dimension << " exceeds the "
                               << kMaxDimension << " limit");
    } else if (key == "EDGE_WEIGHT_TYPE") {
      header.edge_weight_type = value;
    } else if (key == "EDGE_WEIGHT_FORMAT") {
      header.edge_weight_format = value;
    } else if (key == "NODE_COORD_SECTION" || key == "DISPLAY_DATA_SECTION") {
      TSPOPT_CHECK_MSG(header.dimension > 0,
                       "line " << at_line << ": DIMENSION must precede "
                               << key);
      auto n = static_cast<std::size_t>(header.dimension);
      std::vector<Point> pts(n);
      std::vector<char> seen(n, 0);
      TokenStream tokens(source);
      std::string tok_index, tok_x, tok_y;
      for (std::size_t i = 0; i < n; ++i) {
        TSPOPT_CHECK_MSG(tokens.next(tok_index) && tokens.next(tok_x) &&
                             tokens.next(tok_y),
                         "line " << tokens.line_no() << ": " << key
                                 << " truncated at entry " << i << " of "
                                 << n);
        std::int64_t index =
            parse_int(tok_index, tokens.line_no(), "node index");
        TSPOPT_CHECK_MSG(index >= 1 && index <= header.dimension,
                         "line " << tokens.line_no() << ": node index "
                                 << index << " out of range [1, "
                                 << header.dimension << "]");
        double x = parse_double(tok_x, tokens.line_no(), "x coordinate");
        double y = parse_double(tok_y, tokens.line_no(), "y coordinate");
        check_coordinate(x, "x coordinate on line", tokens.line_no());
        check_coordinate(y, "y coordinate on line", tokens.line_no());
        auto slot = static_cast<std::size_t>(index - 1);
        TSPOPT_CHECK_MSG(!seen[slot], "line " << tokens.line_no()
                                              << ": duplicate node index "
                                              << index);
        seen[slot] = 1;
        pts[slot] = {static_cast<float>(x), static_cast<float>(y)};
      }
      if (key == "NODE_COORD_SECTION") {
        points = std::move(pts);
        saw_coords = true;
      } else {
        display_points = std::move(pts);
      }
    } else if (key == "EDGE_WEIGHT_SECTION") {
      TSPOPT_CHECK_MSG(header.dimension > 0,
                       "line " << at_line
                               << ": DIMENSION must precede "
                                  "EDGE_WEIGHT_SECTION");
      TSPOPT_CHECK_MSG(!header.edge_weight_format.empty(),
                       "line " << at_line
                               << ": EDGE_WEIGHT_FORMAT must precede "
                                  "EDGE_WEIGHT_SECTION");
      auto n = static_cast<std::size_t>(header.dimension);
      TokenStream tokens(source);
      auto raw = read_ints(
          tokens, triangle_count(header.edge_weight_format, n, at_line));
      matrix = expand_matrix(header.edge_weight_format, raw, n);
      saw_matrix = true;
    } else if (key == "EOF") {
      break;
    } else if (key == "FIXED_EDGES_SECTION" || key == "TOUR_SECTION") {
      TSPOPT_CHECK_MSG(false,
                       "line " << at_line << ": unsupported section: " << key);
    }
    // Unknown keywords with values are ignored (TSPLIB extensions).
  }

  if (saw_matrix) {
    TSPOPT_CHECK_MSG(header.edge_weight_type == "EXPLICIT",
                     "EDGE_WEIGHT_SECTION requires EDGE_WEIGHT_TYPE EXPLICIT");
    auto n = static_cast<std::size_t>(header.dimension);
    return Instance(header.name, std::move(matrix), n,
                    std::move(display_points));
  }
  TSPOPT_CHECK_MSG(saw_coords, "no NODE_COORD_SECTION or EDGE_WEIGHT_SECTION");
  TSPOPT_CHECK_MSG(!header.edge_weight_type.empty(),
                   "missing EDGE_WEIGHT_TYPE");
  TSPOPT_CHECK_MSG(
      points.size() == static_cast<std::size_t>(header.dimension),
      "coordinate count does not match DIMENSION");
  return Instance(header.name, metric_from_string(header.edge_weight_type),
                  std::move(points));
}

Instance load_tsplib(const std::string& path) {
  std::ifstream in(path);
  TSPOPT_CHECK_MSG(in.good(), "cannot open TSPLIB file: " << path);
  return parse_tsplib(in);
}

void write_tsplib(std::ostream& out, const Instance& instance) {
  TSPOPT_CHECK_MSG(instance.metric() != Metric::kExplicit,
                   "writer supports coordinate-based instances only");
  out << "NAME : " << instance.name() << "\n"
      << "TYPE : TSP\n"
      << "DIMENSION : " << instance.n() << "\n"
      << "EDGE_WEIGHT_TYPE : " << to_string(instance.metric()) << "\n"
      << "NODE_COORD_SECTION\n";
  // max_digits10 guarantees the parsed floats are bit-identical to the
  // written ones (rounded metrics are sensitive to the last ulp).
  out << std::setprecision(std::numeric_limits<float>::max_digits10);
  for (std::int32_t i = 0; i < instance.n(); ++i) {
    const Point& p = instance.point(i);
    out << (i + 1) << ' ' << p.x << ' ' << p.y << "\n";
  }
  out << "EOF\n";
}

void save_tsplib(const std::string& path, const Instance& instance) {
  std::ofstream out(path);
  TSPOPT_CHECK_MSG(out.good(), "cannot write TSPLIB file: " << path);
  write_tsplib(out, instance);
}

}  // namespace tspopt
