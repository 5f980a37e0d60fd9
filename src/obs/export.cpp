#include "obs/export.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/reader.hpp"
#include "simcore/check.hpp"

namespace tls::obs {

namespace {

// Synthetic process ids grouping Perfetto tracks. Host NIC tracks live
// under kNetPid (tid = host id), per-job tracks under kJobsPid (tid = job
// id), controller activity under kCtrlPid.
constexpr int kNetPid = 1;
constexpr int kJobsPid = 2;
constexpr int kCtrlPid = 3;

/// Nanoseconds rendered as microseconds with exactly three decimals —
/// integer math only, so the same event always produces the same bytes.
std::string ts_us(sim::Time t) {
  std::int64_t ns = sim::to_nanos(t);
  if (ns < 0) ns = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

struct Track {
  int pid = kNetPid;
  int tid = 0;
};

/// Which Perfetto track an event renders on.
Track track_for(const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::kChunkEnqueue:
    case EventKind::kChunkDequeue:
    case EventKind::kBandService:
    case EventKind::kHtbGreen:
    case EventKind::kHtbYellow:
    case EventKind::kOverlimit:
    case EventKind::kIngressArrive:
    case EventKind::kIngressDeliver:
      return Track{kNetPid, e.host < 0 ? 0 : e.host};
    case EventKind::kBarrierEnter:
    case EventKind::kBarrierRelease:
    case EventKind::kStragglerLag:
    case EventKind::kWorkerCompute:
    case EventKind::kPsAggregate:
      return Track{kJobsPid, e.job < 0 ? 0 : e.job};
    case EventKind::kFlowStart:
    case EventKind::kFlowEnd:
      if (e.job >= 0) return Track{kJobsPid, e.job};
      return Track{kNetPid, e.host < 0 ? 0 : e.host};
    case EventKind::kRotation:
    case EventKind::kBandAssign:
      return Track{kCtrlPid, 0};
    case EventKind::kGaugeSample:
      if (e.job >= 0) return Track{kJobsPid, e.job};
      return Track{kNetPid, e.host < 0 ? 0 : e.host};
  }
  return Track{kCtrlPid, 0};
}

void append_common(std::ostringstream& os, const TraceEvent& e,
                   const Track& t, const char* ph) {
  os << "{\"name\":\"" << to_string(e.kind) << "\",\"cat\":\""
     << to_string(e.cat) << "\",\"ph\":\"" << ph << "\",\"ts\":" << ts_us(e.at)
     << ",\"pid\":" << t.pid << ",\"tid\":" << t.tid;
}

void append_args(std::ostringstream& os, const TraceEvent& e) {
  os << ",\"args\":{";
  bool first = true;
  auto arg = [&](const char* key, std::int64_t v) {
    if (!first) os << ',';
    first = false;
    os << '"' << key << "\":" << v;
  };
  // Flow events reuse the band field for the FlowKind ordinal; render it
  // under its real meaning instead of a misleading "band".
  bool flow_event =
      e.kind == EventKind::kFlowStart || e.kind == EventKind::kFlowEnd;
  if (e.band >= 0 && !flow_event) arg("band", e.band);
  if (e.flow != 0) arg("flow", e.flow);
  if (e.bytes != 0) arg("bytes", e.bytes);
  switch (e.kind) {
    case EventKind::kChunkDequeue:
      arg("index", e.b);
      arg("queue_wait_ns", e.a);
      break;
    case EventKind::kChunkEnqueue:
    case EventKind::kIngressArrive:
      arg("index", e.b);
      break;
    case EventKind::kIngressDeliver:
      arg("index", e.b);
      arg("fan_in_wait_ns", e.a);
      break;
    case EventKind::kFlowStart:
    case EventKind::kFlowEnd:
      arg("kind", e.band);
      arg("src", e.host);
      arg("dst", e.a);
      arg("iteration", e.b);
      break;
    case EventKind::kWorkerCompute:
      arg("worker", e.a);
      arg("iteration", e.b);
      break;
    case EventKind::kPsAggregate:
      arg("shard", e.a);
      arg("iteration", e.b);
      break;
    case EventKind::kOverlimit:
      arg("retry_at_ns", e.a);
      break;
    case EventKind::kRotation:
      arg("offset", e.a);
      break;
    case EventKind::kBandAssign:
      arg("job", e.job);
      break;
    case EventKind::kBarrierEnter:
    case EventKind::kBarrierRelease:
      arg("worker", e.a);
      arg("iteration", e.b);
      break;
    case EventKind::kStragglerLag:
      arg("iteration", e.a);
      arg("lag_ns", e.b);
      break;
    case EventKind::kGaugeSample:
      arg("value", e.a);
      break;
    default:
      break;
  }
  os << '}';
}

void append_metadata(std::ostringstream& os, int pid, int tid,
                     const char* which, const std::string& name, bool* first) {
  if (!*first) os << ",\n";
  *first = false;
  os << "{\"name\":\"" << which << "\",\"ph\":\"M\",\"pid\":" << pid;
  if (tid >= 0) os << ",\"tid\":" << tid;
  os << ",\"args\":{\"name\":\"" << name << "\"}}";
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kChunkEnqueue: return "chunk_enqueue";
    case EventKind::kChunkDequeue: return "chunk_dequeue";
    case EventKind::kBandService: return "band_service";
    case EventKind::kHtbGreen: return "htb_green";
    case EventKind::kHtbYellow: return "htb_yellow";
    case EventKind::kOverlimit: return "overlimit";
    case EventKind::kRotation: return "rotation";
    case EventKind::kBandAssign: return "band_assign";
    case EventKind::kBarrierEnter: return "barrier_enter";
    case EventKind::kBarrierRelease: return "barrier_release";
    case EventKind::kStragglerLag: return "straggler_lag";
    case EventKind::kGaugeSample: return "gauge_sample";
    case EventKind::kFlowStart: return "flow_start";
    case EventKind::kFlowEnd: return "flow_end";
    case EventKind::kIngressArrive: return "ingress_arrive";
    case EventKind::kIngressDeliver: return "ingress_deliver";
    case EventKind::kWorkerCompute: return "worker_compute";
    case EventKind::kPsAggregate: return "ps_aggregate";
  }
  return "?";
}

std::string chrome_trace_json(const Tracer& tracer) {
  const std::vector<TraceEvent>& events = tracer.events();

  // Collect the tracks actually used so metadata stays minimal and ordered.
  std::vector<int> hosts;
  std::vector<int> jobs;
  bool ctrl = false;
  for (const TraceEvent& e : events) {
    Track t = track_for(e);
    if (t.pid == kNetPid) {
      hosts.push_back(t.tid);
    } else if (t.pid == kJobsPid) {
      jobs.push_back(t.tid);
    } else {
      ctrl = true;
    }
  }
  auto uniq = [](std::vector<int>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  uniq(hosts);
  uniq(jobs);

  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  if (!hosts.empty()) {
    append_metadata(os, kNetPid, -1, "process_name", "net", &first);
    for (int h : hosts) {
      append_metadata(os, kNetPid, h, "thread_name",
                      "host " + std::to_string(h) + " nic", &first);
    }
  }
  if (!jobs.empty()) {
    append_metadata(os, kJobsPid, -1, "process_name", "jobs", &first);
    for (int j : jobs) {
      append_metadata(os, kJobsPid, j, "thread_name",
                      "job " + std::to_string(j), &first);
    }
  }
  if (ctrl) {
    append_metadata(os, kCtrlPid, -1, "process_name", "tensorlights", &first);
    append_metadata(os, kCtrlPid, 0, "thread_name", "controller", &first);
  }

  for (const TraceEvent& e : events) {
    if (!first) os << ",\n";
    first = false;
    Track t = track_for(e);
    if (e.kind == EventKind::kBarrierRelease && e.dur > sim::Time{0}) {
      // Render the barrier wait as a duration span ending at release time.
      TraceEvent span = e;
      span.at = e.at - e.dur;
      append_common(os, span, t, "X");
      os << ",\"dur\":" << ts_us(e.dur);
      append_args(os, e);
      os << '}';
      continue;
    }
    if ((e.kind == EventKind::kWorkerCompute ||
         e.kind == EventKind::kPsAggregate) &&
        e.dur > sim::Time{0}) {
      // Compute spans are stamped at their start with the duration known.
      append_common(os, e, t, "X");
      os << ",\"dur\":" << ts_us(e.dur);
      append_args(os, e);
      os << '}';
      continue;
    }
    append_common(os, e, t, "i");
    os << ",\"s\":\"t\"";
    append_args(os, e);
    os << '}';
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

namespace {

constexpr char kTraceCsvHeader[] =
    "at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns\n";

// Room a row may take in the block: eleven fields of at most 20 chars each
// (an int64 with its sign), ten commas and the newline. A name is shorter,
// and the fixed-size copy of a name field (NameField) ends inside it.
constexpr std::size_t kMaxCsvRow = 11 * 20 + 11;

/// A kind or category name followed by its comma. put_name copies the
/// whole `text` as one fixed-size block and keeps `size` bytes of it.
struct NameField {
  char text[32];
  std::size_t size;
};

/// Every kind and every category as a name field, built once from
/// to_string. The last entry of each is the "?" to_string gives a value
/// outside the enum.
struct NameFields {
  NameField kinds[kNumEventKinds + 1];
  NameField cats[kNumCats + 1];
};

NameField name_field(const char* name) {
  NameField f{};
  f.size = std::strlen(name) + 1;
  TLS_CHECK(f.size <= sizeof(f.text), "trace CSV name too long: ", name);
  std::memcpy(f.text, name, f.size - 1);
  f.text[f.size - 1] = ',';
  return f;
}

const NameFields& name_fields() {
  static const NameFields fields = [] {
    NameFields f{};
    for (std::size_t k = 0; k <= kNumEventKinds; ++k) {
      f.kinds[k] = name_field(to_string(static_cast<EventKind>(k)));
    }
    for (int c = 0; c < kNumCats; ++c) {
      f.cats[c] = name_field(to_string(static_cast<Cat>(1u << c)));
    }
    f.cats[kNumCats] = name_field("?");
    return f;
  }();
  return fields;
}

const NameField& kind_field(const NameFields& names, EventKind kind) {
  return names.kinds[std::min(static_cast<std::size_t>(kind), kNumEventKinds)];
}

const NameField& cat_field(const NameFields& names, Cat cat) {
  const auto bits = static_cast<std::uint32_t>(cat);
  return names.cats[std::has_single_bit(bits) && bits <= kAllCats
                        ? std::countr_zero(bits)
                        : kNumCats];
}

char* put_name(char* p, const NameField& f) {
  std::memcpy(p, f.text, sizeof(f.text));
  return p + f.size;
}

/// 10^k for every k whose power a uint64 holds (0..19).
constexpr auto kPow10 = [] {
  std::array<std::uint64_t, 20> pow{};
  std::uint64_t v = 1;
  for (std::uint64_t& p : pow) {
    p = v;
    v *= 10;
  }
  return pow;
}();

/// "00" through "99", so each step writes two digits.
constexpr auto kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

/// Decimal digits of `v` without a loop: bit_width(v) * 1233 >> 12 is
/// floor(log10(2^width)), which is floor(log10(v)) or one more; one
/// compare against the power of ten settles which.
int decimal_digits(std::uint64_t v) {
  v |= 1;  // 0 has one digit, as 1 does
  const int t = (std::bit_width(v) * 1233) >> 12;
  return t + (v >= kPow10[t] ? 1 : 0);
}

/// Writes `v` in decimal, as std::to_chars does, and returns its end.
char* put_uint(char* p, std::uint64_t v) {
  char* const end = p + decimal_digits(v);
  char* q = end;
  while (v >= 100) {
    q -= 2;
    std::memcpy(q, &kDigitPairs[2 * (v % 100)], 2);
    v /= 100;
  }
  if (v >= 10) {
    std::memcpy(q - 2, &kDigitPairs[2 * v], 2);
  } else {
    q[-1] = static_cast<char>('0' + v);
  }
  return end;
}

char* put_field(char* p, std::int64_t v) {
  auto u = static_cast<std::uint64_t>(v);
  if (v < 0) {
    *p++ = '-';
    u = 0 - u;  // INT64_MIN's magnitude too
  }
  p = put_uint(p, u);
  *p = ',';
  return p + 1;
}

}  // namespace

TraceCsvWriter::TraceCsvWriter(std::ostream& out)
    : out_(out),
      block_(std::make_unique_for_overwrite<char[]>(kReadChunkBytes)),
      pos_(block_.get()),
      block_end_(block_.get() + kReadChunkBytes - kMaxCsvRow) {
  std::memcpy(pos_, kTraceCsvHeader, sizeof(kTraceCsvHeader) - 1);
  pos_ += sizeof(kTraceCsvHeader) - 1;
}

void TraceCsvWriter::on_event(const TraceEvent& e) {
  if (pos_ > block_end_) flush_block();
  const NameFields& names = name_fields();
  char* p = put_field(pos_, sim::to_nanos(e.at));
  p = put_name(p, kind_field(names, e.kind));
  p = put_name(p, cat_field(names, e.cat));
  p = put_field(p, e.host);
  p = put_field(p, e.job);
  p = put_field(p, e.band);
  p = put_field(p, e.flow);
  p = put_field(p, e.bytes);
  p = put_field(p, e.a);
  p = put_field(p, e.b);
  p = put_field(p, sim::to_nanos(e.dur));
  p[-1] = '\n';
  pos_ = p;
}

void TraceCsvWriter::flush_block() {
  out_.write(block_.get(), pos_ - block_.get());
  pos_ = block_.get();
}

void TraceCsvWriter::finish(const TraceHealth& h) {
  flush_block();
  // Capture-health trailer: omitted entirely for complete traces, so the
  // file format (and every golden) is unchanged unless events went missing.
  if (h.complete()) return;
  auto emit = [this](const char* which, std::uint64_t total,
                     const std::uint64_t (&by_cat)[kNumCats]) {
    if (total == 0) return;
    out_ << "#health," << which << ",total," << total << '\n';
    for (std::uint32_t bit = 1; bit <= kAllCats; bit <<= 1) {
      Cat cat = static_cast<Cat>(bit);
      std::uint64_t n = by_cat[cat_index(cat)];
      if (n != 0) out_ << "#health," << which << ',' << to_string(cat) << ','
                       << n << '\n';
    }
  };
  emit("dropped", h.dropped_total, h.dropped_by_cat);
  emit("sampled", h.sampled_out_total, h.sampled_out_by_cat);
}

std::string trace_csv(const Tracer& tracer) {
  std::ostringstream os;
  TraceCsvWriter writer(os);
  for (const TraceEvent& e : tracer.events()) writer.on_event(e);
  writer.finish(tracer.health());
  return os.str();
}

std::string json_escape(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

bool write_file(const std::string& path, const std::string& content,
                std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  out << content;
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

}  // namespace tls::obs
