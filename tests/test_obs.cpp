// Observability layer: registry correctness under concurrent PE threads,
// RunReport totals vs. the backend-specific counters they unify, trace
// JSON well-formedness for every backend, and the logging/timer
// satellites (Timer::ScopedAccum, per-PE log tags).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "core/coarse_msg_sim.hpp"
#include "core/generalized_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "obs/jsonlite.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace svsim {
namespace {

Circuit ghz(IdxType n) {
  Circuit c(n);
  c.h(0);
  for (IdxType q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  return c;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- registry ------------------------------------------------------------

TEST(ObsRegistry, CounterExactUnderConcurrentThreads) {
  obs::Counter& c = obs::Registry::global().counter("test.concurrent");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kAdds = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(ObsRegistry, HistogramExactCountAndBoundsUnderConcurrentThreads) {
  obs::Histogram& h = obs::Registry::global().histogram("test.hist");
  h.reset();
  constexpr int kThreads = 8;
  constexpr int kRecords = 5000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h, t] {
      for (int i = 0; i < kRecords; ++i) {
        h.record_us(static_cast<double>(t * kRecords + i + 1));
      }
    });
  }
  for (auto& t : ts) t.join();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kRecords);
  EXPECT_DOUBLE_EQ(s.min_us, 1.0);
  EXPECT_DOUBLE_EQ(s.max_us, static_cast<double>(kThreads * kRecords));
  // Sum of 1..N accumulated via CAS adds is exact (integral doubles).
  const double n = static_cast<double>(kThreads) * kRecords;
  EXPECT_DOUBLE_EQ(s.sum_us, n * (n + 1) / 2);
  std::uint64_t in_buckets = 0;
  for (const auto b : s.buckets) in_buckets += b;
  EXPECT_EQ(in_buckets, s.count);
}

TEST(ObsRegistry, ResetZeroesInPlaceAndKeepsReferencesValid) {
  obs::Counter& c = obs::Registry::global().counter("test.reset");
  c.add(7);
  obs::Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);
  EXPECT_EQ(obs::Registry::global().counter("test.reset").value(), 2u);
}

// --- Timer::ScopedAccum --------------------------------------------------

TEST(ObsTimer, ScopedAccumAddsElapsedAcrossScopes) {
  double acc = 0;
  {
    Timer::ScopedAccum t(acc);
  }
  const double first = acc;
  EXPECT_GE(first, 0.0);
  {
    Timer::ScopedAccum t(acc);
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  EXPECT_GT(acc, first); // second scope added on top
}

// --- logging satellites --------------------------------------------------

TEST(ObsLogging, PeTagIsThreadLocal) {
  set_log_pe(3);
  EXPECT_EQ(log_pe(), 3);
  std::thread other([] { EXPECT_EQ(log_pe(), -1); });
  other.join();
  set_log_pe(-1);
  EXPECT_EQ(log_pe(), -1);
}

// --- RunReport -----------------------------------------------------------

TEST(ObsReport, EveryBackendCountsGatesByKind) {
  const Circuit c = ghz(8);
  SingleSim single(8);
  PeerSim peer(8, 4);
  ShmemSim shmem(8, 4);
  CoarseMsgSim coarse(8, 4);
  GeneralizedSim generalized(8);
  Simulator* sims[] = {&single, &peer, &shmem, &coarse, &generalized};
  for (Simulator* sim : sims) {
    sim->run(c);
    const obs::RunReport& r = sim->last_report();
    EXPECT_EQ(r.backend, sim->name());
    EXPECT_EQ(r.n_qubits, 8);
    EXPECT_EQ(r.of(OP::H).count, 1u) << sim->name();
    EXPECT_EQ(r.of(OP::CX).count, 7u) << sim->name();
    EXPECT_EQ(r.total_gates, 8u) << sim->name();
    EXPECT_GT(r.wall_seconds, 0.0) << sim->name();
    EXPECT_FALSE(r.profiled) << sim->name(); // default: profiling off
    EXPECT_FALSE(r.summary().empty());
  }
}

TEST(ObsReport, ShmemReportMatchesTrafficStatsOnGhz) {
  ShmemSim sim(8, 4);
  sim.run(ghz(8));
  const shmem::TrafficStats t = sim.traffic();
  const obs::CommStats& comm = sim.last_report().comm;
  EXPECT_GT(t.remote_gets + t.remote_puts, 0u); // GHZ crosses partitions
  EXPECT_EQ(comm.local_ops, t.local_gets + t.local_puts);
  EXPECT_EQ(comm.remote_ops, t.remote_gets + t.remote_puts);
  EXPECT_EQ(comm.bytes, t.bytes_got + t.bytes_put);
  EXPECT_EQ(comm.barriers, t.barriers);
  EXPECT_EQ(comm.messages, 0u);
}

TEST(ObsReport, PeerReportMatchesPeerTraffic) {
  PeerSim sim(8, 4);
  sim.run(ghz(8));
  const PeerTraffic t = sim.traffic();
  const obs::CommStats& comm = sim.last_report().comm;
  EXPECT_EQ(comm.local_ops, t.local_access);
  EXPECT_EQ(comm.remote_ops, t.remote_access);
  EXPECT_GT(comm.remote_ops, 0u);
}

TEST(ObsReport, CoarseReportCarriesMessageTotals) {
  CoarseMsgSim sim(8, 4);
  sim.run(ghz(8));
  const MsgStats t = sim.stats();
  const obs::CommStats& comm = sim.last_report().comm;
  EXPECT_EQ(comm.messages, t.messages);
  EXPECT_EQ(comm.bytes, t.bytes);
  EXPECT_GT(comm.messages, 0u); // the CX ladder crosses the partition cut
}

TEST(ObsReport, ProfiledRunRecordsPerGateKindTime) {
  SimConfig cfg;
  cfg.profile = true;
  SingleSim sim(10, cfg);
  sim.run(ghz(10));
  const obs::RunReport& r = sim.last_report();
  EXPECT_TRUE(r.profiled);
  EXPECT_GT(r.of(OP::CX).seconds, 0.0);
  EXPECT_GT(r.of(OP::H).seconds, 0.0);
  // The summary carries the per-kind breakdown.
  EXPECT_NE(r.summary().find("cx"), std::string::npos);
}

TEST(ObsReport, RunFusedRecordsFusionStats) {
  Circuit c(4);
  c.h(0);
  c.h(0); // cancels to identity
  c.cx(0, 1);
  c.cx(0, 1); // cancels
  c.t(2);
  SingleSim sim(4);
  sim.run_fused(c);
  const FusionStats& f = sim.last_report().fusion;
  EXPECT_EQ(f.gates_before, 5);
  EXPECT_LT(f.gates_after, f.gates_before);
  EXPECT_GT(f.cancelled_2q, 0);
}

TEST(ObsReport, SampleRefreshesTheReport) {
  SingleSim sim(4);
  sim.run(ghz(4));
  EXPECT_EQ(sim.last_report().of(OP::MA).count, 0u);
  sim.sample(16);
  EXPECT_EQ(sim.last_report().of(OP::MA).count, 1u);
}

// --- Chrome trace export -------------------------------------------------

class ObsTraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    // One file per test case: ctest runs the cases as parallel processes.
    path_ = ::testing::TempDir() + "svsim_trace_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".json";
    obs::Trace::global().clear();
    obs::Trace::global().set_path(path_);
  }
  void TearDown() override {
    obs::Trace::global().set_path("");
    obs::Trace::global().clear();
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(ObsTraceTest, EveryBackendWritesWellFormedNonEmptyTraceJson) {
  SimConfig cfg;
  cfg.profile = true;
  const Circuit c = ghz(6);

  SingleSim single(6, cfg);
  PeerSim peer(6, 2, cfg);
  ShmemSim shmem(6, 2, cfg);
  CoarseMsgSim coarse(6, 2, cfg);
  GeneralizedSim generalized(6, cfg);
  Simulator* sims[] = {&single, &peer, &shmem, &coarse, &generalized};

  std::size_t prev_events = 0;
  for (Simulator* sim : sims) {
    sim->run(c);
    const std::size_t now = obs::Trace::global().event_count();
    EXPECT_GE(now - prev_events, static_cast<std::size_t>(c.n_gates()))
        << sim->name();
    prev_events = now;

    const std::string text = read_file(path_);
    ASSERT_FALSE(text.empty()) << sim->name();
    std::size_t err = 0;
    EXPECT_TRUE(obs::jsonlite::valid(text, &err))
        << sim->name() << ": JSON error at byte " << err;
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find(sim->name()), std::string::npos)
        << "process track metadata missing";
  }
  // Multi-worker backends produce one thread track per PE.
  const std::string text = read_file(path_);
  EXPECT_NE(text.find("\"PE 0\""), std::string::npos);
  EXPECT_NE(text.find("\"PE 1\""), std::string::npos);
}

TEST_F(ObsTraceTest, DisabledTraceCollectsNothing) {
  obs::Trace::global().set_path("");
  SimConfig cfg;
  cfg.profile = true; // timing on, but no trace sink configured
  SingleSim sim(4, cfg);
  sim.run(ghz(4));
  EXPECT_TRUE(sim.last_report().profiled);
  EXPECT_EQ(obs::Trace::global().event_count(), 0u);
}

// --- jsonlite ------------------------------------------------------------

// --- prometheus exposition ----------------------------------------------

struct PromSample {
  std::string family; // base family (suffix stripped for histograms)
  std::string name;   // full metric name as written
  std::map<std::string, std::string> labels;
  double value = 0;
};

/// Strict line-walk of the Prometheus text exposition format. Asserts:
/// `# HELP` / `# TYPE` exactly once per family and before its samples,
/// every sample belongs to a typed family, label values use only the
/// legal escapes (\\ \" \n), and sample values parse as numbers.
void strict_parse_prom(const std::string& text,
                       std::vector<PromSample>* out_samples) {
  std::map<std::string, std::string> type_of;
  std::set<std::string> help_seen;
  std::set<std::string> sampled;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    SCOPED_TRACE("line " + std::to_string(lineno) + ": " + line);
    ASSERT_FALSE(line.empty());
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos) << "HELP without text";
      const std::string fam = rest.substr(0, sp);
      EXPECT_TRUE(help_seen.insert(fam).second)
          << "duplicate # HELP for " << fam;
      EXPECT_EQ(sampled.count(fam), 0u) << "# HELP after samples";
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos);
      const std::string fam = rest.substr(0, sp);
      const std::string type = rest.substr(sp + 1);
      EXPECT_TRUE(type == "counter" || type == "histogram" ||
                  type == "gauge")
          << "unknown type " << type;
      EXPECT_TRUE(type_of.emplace(fam, type).second)
          << "duplicate # TYPE for " << fam;
      EXPECT_EQ(sampled.count(fam), 0u) << "# TYPE after samples";
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment line";

    // Sample: name[{labels}] value
    PromSample s;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    s.name = line.substr(0, i);
    ASSERT_FALSE(s.name.empty());
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::string key;
        while (i < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[i])) != 0 ||
                line[i] == '_')) {
          key += line[i++];
        }
        ASSERT_FALSE(key.empty()) << "empty label name";
        ASSERT_LT(i + 1, line.size());
        ASSERT_EQ(line[i], '=');
        ASSERT_EQ(line[i + 1], '"');
        i += 2;
        std::string value;
        bool closed = false;
        while (i < line.size()) {
          const char c = line[i];
          if (c == '"') {
            closed = true;
            ++i;
            break;
          }
          if (c == '\\') {
            ASSERT_LT(i + 1, line.size()) << "dangling backslash";
            const char esc = line[i + 1];
            ASSERT_TRUE(esc == '\\' || esc == '"' || esc == 'n')
                << "illegal escape \\" << esc;
            value += esc == 'n' ? '\n' : esc;
            i += 2;
            continue;
          }
          value += c;
          ++i;
        }
        ASSERT_TRUE(closed) << "unterminated label value";
        s.labels[key] = value;
        if (i < line.size() && line[i] == ',') ++i;
      }
      ASSERT_LT(i, line.size());
      ASSERT_EQ(line[i], '}');
      ++i;
    }
    ASSERT_LT(i, line.size());
    ASSERT_EQ(line[i], ' ');
    const std::string value_str = line.substr(i + 1);
    char* end = nullptr;
    s.value = std::strtod(value_str.c_str(), &end);
    const bool is_inf = value_str == "+Inf";
    EXPECT_TRUE(is_inf ||
                (end != nullptr && *end == '\0' && end != value_str.c_str()))
        << "bad sample value: " << value_str;

    // Resolve the family: histogram samples carry a suffix.
    s.family = s.name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string suf(suffix);
      if (s.name.size() > suf.size() &&
          s.name.compare(s.name.size() - suf.size(), suf.size(), suf) ==
              0) {
        const std::string base = s.name.substr(0, s.name.size() - suf.size());
        if (type_of.count(base) != 0 && type_of[base] == "histogram") {
          s.family = base;
          break;
        }
      }
    }
    ASSERT_NE(type_of.count(s.family), 0u)
        << "sample without # TYPE: " << s.name;
    EXPECT_NE(help_seen.count(s.family), 0u)
        << "sample without # HELP: " << s.name;
    if (type_of[s.family] == "histogram" &&
        s.name == s.family + "_bucket") {
      EXPECT_NE(s.labels.count("le"), 0u) << "bucket without le";
    }
    sampled.insert(s.family);
    if (out_samples != nullptr) out_samples->push_back(s);
  }
}

TEST(ObsProm, ExpositionStrictlyWellFormed) {
  auto& reg = obs::Registry::global();
  reg.counter("promtest.gates.applied").add(7);
  reg.histogram("promtest.gate_us").record_us(12.5);
  reg.histogram("promtest.gate_us").record_us(900.0);
  reg.histogram("promtest.gate_us").record_us(0.2);
  std::vector<PromSample> samples;
  strict_parse_prom(reg.write_prom(), &samples);

  // Histogram invariants: cumulative buckets monotone, _count == +Inf.
  std::map<std::string, double> last_bucket;
  std::map<std::string, double> inf_bucket;
  std::map<std::string, double> count_sample;
  for (const PromSample& s : samples) {
    const std::string series =
        s.family + "|" + (s.labels.count("name") ? s.labels.at("name") : "");
    if (s.name == s.family + "_bucket") {
      auto [it, fresh] = last_bucket.emplace(series, s.value);
      if (!fresh) {
        EXPECT_GE(s.value, it->second) << "non-cumulative buckets";
        it->second = s.value;
      }
      if (s.labels.at("le") == "+Inf") inf_bucket[series] = s.value;
    } else if (s.name == s.family + "_count") {
      count_sample[series] = s.value;
    }
  }
  for (const auto& [series, count] : count_sample) {
    ASSERT_NE(inf_bucket.count(series), 0u) << series;
    EXPECT_EQ(inf_bucket[series], count) << series;
  }
  EXPECT_NE(count_sample.size(), 0u);
}

TEST(ObsProm, CollidingNamesShareOneFamilyViaNameLabel) {
  auto& reg = obs::Registry::global();
  // Both sanitize to svsim_promcollide_x_total: one family header, two
  // samples distinguished by a name label.
  reg.counter("promcollide.x").add(1);
  reg.counter("promcollide_x").add(2);
  const std::string text = reg.write_prom();
  std::vector<PromSample> samples;
  strict_parse_prom(text, &samples);

  std::size_t type_lines = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line == "# TYPE svsim_promcollide_x_total counter") ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);

  std::map<std::string, double> by_label;
  for (const PromSample& s : samples) {
    if (s.family == "svsim_promcollide_x_total") {
      ASSERT_NE(s.labels.count("name"), 0u) << "collision without label";
      by_label[s.labels.at("name")] = s.value;
    }
  }
  ASSERT_EQ(by_label.size(), 2u);
  EXPECT_EQ(by_label.at("promcollide.x"), 1.0);
  EXPECT_EQ(by_label.at("promcollide_x"), 2.0);
}

TEST(ObsProm, LabelValuesEscapeBackslashQuoteNewline) {
  auto& reg = obs::Registry::global();
  // Both names sanitize identically, forcing labeled output whose values
  // need every escape class.
  const std::string weird = "promesc.a\"b\\c\nd";
  reg.counter(weird).add(5);
  reg.counter("promesc.a_b_c_d").add(6);
  const std::string text = reg.write_prom();
  EXPECT_NE(text.find("name=\"promesc.a\\\"b\\\\c\\nd\""),
            std::string::npos)
      << text;
  std::vector<PromSample> samples;
  strict_parse_prom(text, &samples);
  bool found = false;
  for (const PromSample& s : samples) {
    if (s.labels.count("name") != 0 && s.labels.at("name") == weird) {
      EXPECT_EQ(s.value, 5.0);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "escaped label did not round-trip";
}

TEST(ObsJsonlite, AcceptsAndRejects) {
  EXPECT_TRUE(obs::jsonlite::valid(R"({"a":[1,2.5e-3,"x\n",true,null]})"));
  EXPECT_TRUE(obs::jsonlite::valid("[]"));
  EXPECT_TRUE(obs::jsonlite::valid("-0.5"));
  EXPECT_FALSE(obs::jsonlite::valid(""));
  EXPECT_FALSE(obs::jsonlite::valid("{"));
  EXPECT_FALSE(obs::jsonlite::valid("{\"a\":}"));
  EXPECT_FALSE(obs::jsonlite::valid("[1,]"));
  EXPECT_FALSE(obs::jsonlite::valid("[1] trailing"));
  EXPECT_FALSE(obs::jsonlite::valid("NaN"));
}

} // namespace
} // namespace svsim
