#include "solver/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <type_traits>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "tsp/tour.hpp"

namespace tspopt {

namespace {

constexpr char kMagic[8] = {'T', 'S', 'P', 'P', 'O', 'P', 'C', '\0'};
// Magic, version and payload size precede the payload; the checksum
// follows it.
constexpr std::uint64_t kHeaderBytes = sizeof(kMagic) + 4 + 8;
constexpr std::uint64_t kChecksumBytes = 8;

// Little-endian scalar serialization into/out of a byte string. The
// library only targets little-endian hosts (as the paper's did); memcpy
// keeps the round-trip exact, including double bit patterns.
class Writer {
 public:
  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    bytes_.append(raw, sizeof(T));
  }

  void put_orders(const std::vector<std::int32_t>& order) {
    put(static_cast<std::uint32_t>(order.size()));
    for (std::int32_t c : order) put(c);
  }

  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    TSPOPT_CHECK_MSG(pos_ + sizeof(T) <= bytes_.size(),
                     "checkpoint payload truncated at byte " << pos_);
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::vector<std::int32_t> get_orders() {
    auto count = get<std::uint32_t>();
    TSPOPT_CHECK_MSG(static_cast<std::size_t>(count) * sizeof(std::int32_t) <=
                         remaining(),
                     "checkpoint tour length " << count
                                               << " exceeds payload size");
    std::vector<std::int32_t> order(count);
    for (std::uint32_t i = 0; i < count; ++i) order[i] = get<std::int32_t>();
    return order;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

void put_member(Writer& w, const IlsCheckpoint& m) {
  w.put(m.iterations);
  w.put(m.improvements);
  w.put(m.checks);
  w.put(m.passes);
  w.put(m.elapsed_seconds);
  w.put_orders(m.best_order);
  w.put(m.best_length);
  w.put_orders(m.incumbent_order);
  w.put(m.incumbent_length);
  w.put(m.rng.state);
  w.put(m.rng.inc);
  w.put(static_cast<std::uint64_t>(m.trace.size()));
  for (const IlsTracePoint& p : m.trace) {
    w.put(p.seconds);
    w.put(p.length);
    w.put(p.iteration);
    w.put(p.checks);
    w.put(p.passes);
  }
}

IlsCheckpoint get_member(Reader& r) {
  IlsCheckpoint m;
  m.iterations = r.get<std::int64_t>();
  m.improvements = r.get<std::int64_t>();
  m.checks = r.get<std::uint64_t>();
  m.passes = r.get<std::int64_t>();
  m.elapsed_seconds = r.get<double>();
  m.best_order = r.get_orders();
  m.best_length = r.get<std::int64_t>();
  m.incumbent_order = r.get_orders();
  m.incumbent_length = r.get<std::int64_t>();
  m.rng.state = r.get<std::uint64_t>();
  m.rng.inc = r.get<std::uint64_t>();
  auto points = r.get<std::uint64_t>();
  TSPOPT_CHECK_MSG(points <= r.remaining(),
                   "checkpoint trace count " << points << " implausible");
  m.trace.reserve(points);
  for (std::uint64_t i = 0; i < points; ++i) {
    IlsTracePoint p;
    p.seconds = r.get<double>();
    p.length = r.get<std::int64_t>();
    p.iteration = r.get<std::int64_t>();
    p.checks = r.get<std::uint64_t>();
    p.passes = r.get<std::int64_t>();
    m.trace.push_back(p);
  }
  return m;
}

void validate_member(const IlsCheckpoint& ck, const Instance& instance) {
  auto n = static_cast<std::size_t>(instance.n());
  TSPOPT_CHECK_MSG(ck.best_order.size() == n && ck.incumbent_order.size() == n,
                   "checkpoint tours have " << ck.best_order.size() << "/"
                                            << ck.incumbent_order.size()
                                            << " cities, instance has " << n);
  Tour best(ck.best_order);
  TSPOPT_CHECK_MSG(best.is_valid(), "checkpoint best tour is not a "
                                    "permutation");
  TSPOPT_CHECK_MSG(best.length(instance) == ck.best_length,
                   "checkpoint best length " << ck.best_length
                                             << " does not match tour ("
                                             << best.length(instance) << ")");
  Tour incumbent(ck.incumbent_order);
  TSPOPT_CHECK_MSG(incumbent.is_valid(),
                   "checkpoint incumbent tour is not a permutation");
  TSPOPT_CHECK_MSG(incumbent.length(instance) == ck.incumbent_length,
                   "checkpoint incumbent length "
                       << ck.incumbent_length << " does not match tour ("
                       << incumbent.length(instance) << ")");
  TSPOPT_CHECK_MSG(ck.iterations >= 0 && ck.improvements >= 0 &&
                       ck.passes >= 0,
                   "checkpoint counters are negative");
}

}  // namespace

void save_population_checkpoint(const std::string& path,
                                const PopulationCheckpoint& ck) {
  TSPOPT_CHECK_MSG(ck.finished.size() == ck.members.size() &&
                       ck.stopped.size() == ck.members.size(),
                   "checkpoint flag vectors out of step with members");
  Writer w;
  w.put(ck.rounds);
  w.put(ck.migrations);
  w.put(ck.elapsed_seconds);
  w.put(static_cast<std::uint32_t>(ck.members.size()));
  for (std::size_t b = 0; b < ck.members.size(); ++b) {
    put_member(w, ck.members[b]);
    w.put(ck.finished[b]);
    w.put(ck.stopped[b]);
  }

  const std::string& payload = w.bytes();
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    TSPOPT_CHECK_MSG(out.good(), "cannot write checkpoint: " << tmp);
    out.write(kMagic, sizeof(kMagic));
    std::uint32_t version = PopulationCheckpoint::kVersion;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    auto size = static_cast<std::uint64_t>(payload.size());
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    std::uint64_t checksum = fnv1a(payload);
    out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    out.flush();
    TSPOPT_CHECK_MSG(out.good(), "checkpoint write failed: " << tmp);
  }
  TSPOPT_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                   "cannot move checkpoint into place: " << path);
}

PopulationCheckpoint load_population_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  TSPOPT_CHECK_MSG(in.good(), "cannot open checkpoint: " << path);
  auto file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);

  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  TSPOPT_CHECK_MSG(in.gcount() == sizeof(magic) &&
                       std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
                   "not a checkpoint file: " << path);
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  TSPOPT_CHECK_MSG(in.gcount() == sizeof(version) &&
                       version == PopulationCheckpoint::kVersion,
                   "unsupported checkpoint version " << version << " in "
                                                     << path);
  std::uint64_t size = 0;
  in.read(reinterpret_cast<char*>(&size), sizeof(size));
  TSPOPT_CHECK_MSG(in.gcount() == sizeof(size), "checkpoint header truncated");
  // The header must account for the file exactly; checking before the
  // allocation keeps a corrupt length from driving a huge one.
  TSPOPT_CHECK_MSG(file_bytes >= kHeaderBytes + kChecksumBytes &&
                       size == file_bytes - kHeaderBytes - kChecksumBytes,
                   "checkpoint payload length "
                       << size << " does not match the file (" << file_bytes
                       << " bytes; truncated or corrupt)");

  std::string payload(size, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(size));
  std::uint64_t checksum = 0;
  in.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
  TSPOPT_CHECK_MSG(in.good(), "checkpoint read failed: " << path);
  TSPOPT_CHECK_MSG(checksum == fnv1a(payload),
                   "checkpoint checksum mismatch (corrupt file): " << path);

  Reader r(payload);
  PopulationCheckpoint ck;
  ck.rounds = r.get<std::int64_t>();
  ck.migrations = r.get<std::int64_t>();
  ck.elapsed_seconds = r.get<double>();
  auto count = r.get<std::uint32_t>();
  TSPOPT_CHECK_MSG(count >= 1 && count <= (1U << 20),
                   "checkpoint member count " << count << " implausible");
  ck.members.reserve(count);
  ck.finished.reserve(count);
  ck.stopped.reserve(count);
  for (std::uint32_t b = 0; b < count; ++b) {
    ck.members.push_back(get_member(r));
    ck.finished.push_back(r.get<std::uint8_t>());
    ck.stopped.push_back(r.get<std::uint8_t>());
  }
  TSPOPT_CHECK_MSG(r.remaining() == 0,
                   "checkpoint payload has trailing bytes (corrupt file)");
  return ck;
}

void validate_population_checkpoint(const PopulationCheckpoint& ck,
                                    const Instance& instance) {
  TSPOPT_CHECK_MSG(!ck.members.empty(), "checkpoint has no members");
  TSPOPT_CHECK_MSG(ck.finished.size() == ck.members.size() &&
                       ck.stopped.size() == ck.members.size(),
                   "checkpoint flag vectors out of step with members");
  TSPOPT_CHECK_MSG(ck.rounds >= 0 && ck.migrations >= 0,
                   "checkpoint counters are negative");
  for (const IlsCheckpoint& m : ck.members) validate_member(m, instance);
}

}  // namespace tspopt
