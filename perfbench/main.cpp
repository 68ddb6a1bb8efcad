// svsim_perfbench: one closed-loop benchmark run of one workload.
//
//   svsim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <path.json>]
//
// Drives only the public entry points, the way users call them, with the
// library's default SimConfig{}:
//   circuit workloads: qasm::parse_qasm -> reset_state -> run -> sample
//   vqe workload:      vqa::build_uccsd -> run_fresh -> state -> expectation
// Every timed output is checked outside the timed region. With --trace 0
// the run prints the end-to-end metrics; with --trace 1 it records spans,
// alternates traced and untraced rounds (the difference is the tracing
// overhead), probes the host's triad bandwidth and prints the per-layer
// metrics. The last stdout line is one JSON object.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "ir/fusion.hpp"
#include "ir/remap.hpp"
#include "ir/schedule.hpp"
#include "metrics.hpp"
#include "obs/perfmodel.hpp"
#include "qasm/parser.hpp"
#include "roof.hpp"
#include "testing/oracle.hpp"
#include "vqa/uccsd.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using svsim::Circuit;
using svsim::IdxType;
using svsim::Simulator;
using svsim::StateVector;
using svsim::Timer;

constexpr IdxType kShots = 1024;
constexpr int kRoofThreads = 4; // the ".t4" roofs

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

// Metrics in print order, plus the reasons some are absent (printed as 0).
struct Output {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  long attempted = 0;
  long failed = 0;
  bool bench_ok = true; // the benchmark's own self-checks

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void absent(const std::string& name, const std::string& unit,
              const std::string& why) {
    add(name, 0, unit);
    notes.push_back("absent " + name + ": " + why);
  }
};

std::unique_ptr<Simulator> make_backend(const WorkloadSpec& spec) {
  if (spec.backend == "peer") {
    return std::make_unique<svsim::PeerSim>(spec.n_qubits, spec.pes);
  }
  if (spec.backend == "shmem") {
    return std::make_unique<svsim::ShmemSim>(spec.n_qubits, spec.pes);
  }
  return std::make_unique<svsim::SingleSim>(spec.n_qubits);
}

// Backend construction + first state init (+ `extra`, the VQE ansatz and
// Hamiltonian build), repeated spec.setup_reps times; the last instance is
// kept for the workload. Returns the setup seconds of every repetition.
std::vector<double> timed_setup(const WorkloadSpec& spec,
                                const std::function<void()>& extra,
                                std::unique_ptr<Simulator>* keep,
                                std::vector<double>* ctor_ms) {
  std::vector<double> out;
  for (int r = 0; r < spec.setup_reps; ++r) {
    keep->reset();
    Timer t;
    Timer c;
    std::unique_ptr<Simulator> sim = make_backend(spec);
    ctor_ms->push_back(c.millis());
    sim->reset_state();
    if (extra) extra();
    out.push_back(t.seconds());
    *keep = std::move(sim);
  }
  return out;
}

// Report fields the per-layer metrics read, copied right after run().
struct RunFacts {
  double loop_ms = 0;
  std::uint64_t executed_gates = 0;
  bool sched_active = false;
  IdxType block_exp = 0;
  std::uint64_t windowed_gates = 0, passes_saved = 0;
  bool remap_active = false;
  int local_bits = 0;
  std::uint64_t swaps = 0, remote_before = 0, remote_after = 0;
  std::uint64_t remote_ops = 0, comm_bytes = 0, barriers = 0;
  bool wait_on = false;
  double wait_share = 0, barrier_s = 0, reduction_s = 0, transfer_s = 0,
         imbalance = 0;
  double tracked_peak_mb = 0;
};

RunFacts facts_of(const svsim::obs::RunReport& r) {
  RunFacts f;
  f.loop_ms = r.wall_seconds * 1e3;
  f.executed_gates = r.total_gates;
  f.sched_active = r.sched.active;
  f.block_exp = r.sched.block_exp;
  f.windowed_gates = r.sched.windowed_gates;
  f.passes_saved = r.sched.passes_saved;
  f.remap_active = r.remap.active;
  f.local_bits = r.remap.local_bits;
  f.swaps = r.remap.swaps_inserted;
  f.remote_before = r.remap.modeled_remote_bytes_before;
  f.remote_after = r.remap.modeled_remote_bytes_after;
  f.remote_ops = r.comm.remote_ops;
  f.comm_bytes = r.comm.bytes;
  f.barriers = r.comm.barriers;
  f.wait_on = r.waitstate.enabled;
  f.wait_share = r.waitstate.wait_fraction;
  for (const auto& pe : r.waitstate.per_pe) {
    f.barrier_s += pe.barrier_s;
    f.reduction_s += pe.reduction_s;
    f.transfer_s += pe.transfer_s;
  }
  f.imbalance = r.waitstate.imbalance;
  f.tracked_peak_mb = static_cast<double>(r.memory.tracked_peak) / (1 << 20);
  return f;
}

// Modeled bytes of the circuit the backend executed, at the schedule the
// report says it used (computed bytes, not measured ones).
double modeled_bytes(const Circuit& parsed, const RunFacts& f) {
  Circuit exec = parsed;
  if (f.remap_active) {
    exec = svsim::remap_for_partition(parsed, f.local_bits).circuit;
  }
  if (f.sched_active) {
    const svsim::Schedule s = svsim::build_schedule(exec, f.block_exp);
    return svsim::obs::model_run(exec, &s).bytes_sched;
  }
  return svsim::obs::model_run(exec).bytes_sched;
}

// One measured item (a circuit, or a VQE evaluation).
struct Item {
  int input = 0;
  bool traced = false;
  int round = 0;
  std::uint64_t parsed_gates = 0;
  double total_s = 0;   // end to end
  double circuit_s = 0; // circuits: == total; vqe: run_fresh + state
  RunFacts facts;       // traced items only
};

// Per-layer accumulation over traced items.
struct Layers {
  std::map<std::string, std::vector<double>> span_ms; // by span name
  std::vector<double> pipeline_ms, loop_ms;
  double model_bytes = 0, loop_s = 0;
  std::vector<bool> counted;  // exact counts taken once per input
  RunFacts counts;            // summed exact counts (one per input)
  std::uint64_t executed = 0; // executed gates behind `counts`
  RunFacts waits;             // summed wait times over traced items
  int wait_items = 0;
  double tracked_peak_mb = 0;
  double fusion_ms = 0, fusion_before = 0, fusion_after = 0;

  // `key` names the input whose exact counts this item carries; each key
  // is counted once, so the counts describe one round of inputs.
  void take(const Item& it, const Circuit& parsed, int key) {
    const RunFacts& f = it.facts;
    loop_ms.push_back(f.loop_ms);
    model_bytes += modeled_bytes(parsed, f);
    loop_s += f.loop_ms * 1e-3;
    tracked_peak_mb = std::max(tracked_peak_mb, f.tracked_peak_mb);
    if (f.wait_on) {
      waits.wait_share += f.wait_share;
      waits.barrier_s += f.barrier_s;
      waits.reduction_s += f.reduction_s;
      waits.transfer_s += f.transfer_s;
      waits.imbalance += f.imbalance;
      ++wait_items;
    }
    const auto k = static_cast<std::size_t>(key);
    if (counted.size() <= k) counted.resize(k + 1, false);
    if (counted[k]) return;
    counted[k] = true;
    counts.windowed_gates += f.windowed_gates;
    counts.passes_saved += f.passes_saved;
    counts.remap_active = counts.remap_active || f.remap_active;
    counts.swaps += f.swaps;
    counts.remote_before += f.remote_before;
    counts.remote_after += f.remote_after;
    counts.remote_ops += f.remote_ops;
    counts.comm_bytes += f.comm_bytes;
    counts.barriers += f.barriers;
    executed += f.executed_gates;
  }

  double span(const std::string& name) const {
    auto it = span_ms.find(name);
    return it == span_ms.end() ? 0 : median(it->second);
  }
};

// Span medians, self-time coverage and tracing overhead from the log.
void fold_spans(const SpanLog& log, const std::vector<Item>& items,
                Layers* layers, Output* out) {
  const std::vector<Span>& spans = log.spans();
  const std::vector<double> self = self_times_us(spans);
  double self_sum = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.item < 0) continue;
    self_sum += self[i];
    if (s.parent >= 0) layers->span_ms[s.name].push_back(s.dur_us() * 1e-3);
  }
  // Run span minus the gate loop, per traced item (spans and items are in
  // the same order).
  std::vector<double> runs = layers->span_ms["core.run"];
  for (std::size_t i = 0; i < runs.size() && i < layers->loop_ms.size(); ++i) {
    layers->pipeline_ms.push_back(runs[i] - layers->loop_ms[i]);
  }
  double traced_s = 0;
  for (const Item& it : items) {
    if (it.traced) traced_s += it.total_s;
  }
  const double ratio = traced_s > 0 ? self_sum * 1e-6 / traced_s : 0;
  out->add("trace.self_sum_ratio", ratio, "ratio");
  if (std::abs(ratio - 1) > 0.05) {
    out->bench_ok = false;
    out->notes.push_back("span self times cover " + std::to_string(ratio) +
                         " of traced end-to-end time (outside 5%)");
  }
}

// Tracing overhead: traced vs untraced item time over paired rounds
// (round 2k untraced, 2k+1 traced). Circuits compare round sums; VQE,
// whose items alternate, compares medians.
double overhead(const std::vector<Item>& items, bool per_item) {
  if (per_item) {
    std::vector<double> on, off;
    for (const Item& it : items) (it.traced ? on : off).push_back(it.total_s);
    const double m = median(off);
    return m > 0 ? median(on) / m - 1 : 0;
  }
  int last = 0;
  for (const Item& it : items) last = std::max(last, it.round);
  const int paired = (last + 1) / 2 * 2; // rounds [0, paired)
  double on = 0, off = 0;
  for (const Item& it : items) {
    if (it.round >= paired) continue;
    (it.traced ? on : off) += it.total_s;
  }
  return off > 0 ? on / off - 1 : 0;
}

void roof_metrics(const WorkloadSpec& spec, const Layers& layers,
                  Output* out) {
  const CacheSizes caches = host_caches();
  const std::vector<TriadPoint> pts = triad_probe(caches, kRoofThreads);
  std::map<std::string, double> gbps;
  for (const TriadPoint& p : pts) {
    gbps[p.level + (p.threads == 1 ? "" : ".t4")] = p.gbps;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "triad %-4s %d thread(s): one array %.1f MiB, three arrays "
                  "%.1f MiB: %.2f GB/s",
                  p.level.c_str(), p.threads, p.array_bytes / 1048576.0,
                  p.total_bytes / 1048576.0, p.gbps);
    out->notes.push_back(buf);
  }
  // The level holding the working set (the state vector).
  const double ws = std::ldexp(16.0, spec.n_qubits);
  const std::string level = ws <= static_cast<double>(caches.l2) ? "l2"
                            : ws <= static_cast<double>(caches.llc) ? "llc"
                                                                    : "dram";
  const std::string roof_key = level + (spec.pes > 1 ? ".t4" : "");
  const double model_gbps =
      layers.loop_s > 0 ? layers.model_bytes / layers.loop_s * 1e-9 : 0;
  out->add("core.model_gbps", model_gbps, "GB/s");
  out->add("core.roof_frac", gbps[roof_key] > 0 ? model_gbps / gbps[roof_key] : 0,
           "ratio");
  out->notes.push_back("core.roof_frac priced against host.triad_gbps." +
                       roof_key + " (state " + std::to_string(ws / 1048576.0) +
                       " MiB); core.model_gbps is modeled bytes / gate-loop time");
  for (const std::string suffix : {"", ".t4"}) {
    for (const char* lvl : {"l2", "llc", "dram"}) {
      const std::string key = lvl + suffix;
      out->add("host.triad_gbps." + key, gbps[key], "GB/s");
    }
  }
}

// Per-layer metrics shared by both workload kinds.
void layer_metrics(const WorkloadSpec& spec, const Layers& L,
                   const std::vector<double>& ctor_ms, Output* out) {
  const bool partitioned = spec.pes > 1;
  out->add("ir.fusion.ms", L.fusion_ms, "ms");
  out->add("ir.fusion.kept_ratio",
           L.fusion_before > 0 ? L.fusion_after / L.fusion_before : 0, "ratio");
  out->add("ir.schedule.windowed_share",
           L.executed ? static_cast<double>(L.counts.windowed_gates) /
                            static_cast<double>(L.executed)
                      : 0,
           "ratio");
  out->add("ir.schedule.passes_saved",
           static_cast<double>(L.counts.passes_saved), "count");
  if (L.counts.remap_active) {
    out->add("ir.remap.swaps", static_cast<double>(L.counts.swaps), "count");
    out->add("ir.remap.remote_bytes_ratio",
             L.counts.remote_before
                 ? static_cast<double>(L.counts.remote_after) /
                       static_cast<double>(L.counts.remote_before)
                 : 0,
             "ratio");
  } else {
    out->absent("ir.remap.swaps", "count", "remap inactive on a single-PE backend");
    out->absent("ir.remap.remote_bytes_ratio", "ratio",
                "remap inactive on a single-PE backend");
  }
  out->add("core.ctor_ms", median(ctor_ms), "ms");
  out->add("core.run_ms", L.span("core.run"), "ms");
  out->add("core.loop_ms", median(L.loop_ms), "ms");
  out->add("core.pipeline_ms", median(L.pipeline_ms), "ms");
  out->add("core.reset_ms", L.span("core.reset"), "ms");
  if (spec.kind == Kind::kCircuits) {
    out->add("core.sample_ms", L.span("core.sample"), "ms");
    out->absent("core.state_ms", "ms", "circuit workloads read shots, not the state");
  } else {
    out->absent("core.sample_ms", "ms", "the VQE path reads the state, not shots");
    out->add("core.state_ms", L.span("core.state"), "ms");
  }
  if (partitioned) {
    out->add("comm.remote_ops", static_cast<double>(L.counts.remote_ops), "count");
    out->add("comm.bytes", static_cast<double>(L.counts.comm_bytes), "B");
    out->add("comm.barriers", static_cast<double>(L.counts.barriers), "count");
    const double n = L.wait_items > 0 ? L.wait_items : 1;
    out->add("comm.wait_share", L.waits.wait_share / n, "ratio");
    out->add("comm.barrier_s", L.waits.barrier_s / n, "s");
    out->add("comm.reduction_s", L.waits.reduction_s / n, "s");
    out->add("comm.transfer_s", L.waits.transfer_s / n, "s");
    out->add("comm.imbalance", L.waits.imbalance / n, "ratio");
  } else {
    const std::string why = "single-PE backend: no communication";
    for (const char* m : {"comm.remote_ops", "comm.barriers"}) out->absent(m, "count", why);
    out->absent("comm.bytes", "B", why);
    out->absent("comm.wait_share", "ratio", why);
    for (const char* m : {"comm.barrier_s", "comm.reduction_s", "comm.transfer_s"}) {
      out->absent(m, "s", why);
    }
    out->absent("comm.imbalance", "ratio", why);
  }
  out->add("mem.tracked_peak_mb", L.tracked_peak_mb, "MiB");
}

void end_to_end(const WorkloadSpec& spec, const std::vector<Item>& items,
                const std::vector<double>& setup, Output* out) {
  std::vector<ItemWork> work;
  std::vector<double> total_ms, circuit_ms;
  double total_s = 0;
  for (const Item& it : items) {
    work.push_back({it.parsed_gates, spec.n_qubits, it.total_s});
    total_ms.push_back(it.total_s * 1e3);
    circuit_ms.push_back(it.circuit_s * 1e3);
    total_s += it.total_s;
  }
  const double q = spec.tail_q;
  out->add("setup_s", median(setup), "s");
  out->add("gate_amps_per_s", gate_amps_per_s(work), "gate_amp/s");
  out->add("circuit_ms_p50", median(circuit_ms), "ms");
  out->add("eval_ms_p50", median(total_ms), "ms");
  out->add("eval_ms_tail", percentile(total_ms, q), "ms");
  out->add("evals_per_s", total_s > 0 ? items.size() / total_s : 0, "1/s");
  out->add("peak_rss_mb", peak_rss_mib(), "MiB");
  out->notes.push_back("eval_ms_tail is the p" + std::to_string(int(q)) +
                       " of " + std::to_string(total_ms.size()) + " items");
  if (tail_percentile_for(total_ms.size()) < q) {
    out->notes.push_back("fewer than ten items lie beyond that percentile");
  }}

// --- circuit workloads -----------------------------------------------------

void run_circuits(const WorkloadSpec& spec, const Args& args, Output* out) {
  const std::vector<CircuitInput> inputs =
      make_circuit_inputs(spec, args.seed);
  std::printf("input_digest %016llx (%zu circuits per round:",
              static_cast<unsigned long long>(digest(inputs)), inputs.size());
  for (const CircuitInput& in : inputs) std::printf(" %s", in.family.c_str());
  std::printf(")\n");

  std::unique_ptr<Simulator> sim;
  std::vector<double> ctor_ms;
  const std::vector<double> setup = timed_setup(spec, nullptr, &sim, &ctor_ms);

  // SingleSim references for the partitioned backends, outside any timing
  // of the workload (their own item times feed core.scaling_eff).
  const bool partitioned = spec.pes > 1;
  std::vector<std::vector<IdxType>> ref_shots(inputs.size());
  std::vector<StateVector> ref_state(inputs.size());
  double ref_s = 0;
  if (partitioned) {
    svsim::SingleSim ref(spec.n_qubits);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      Timer t;
      const Circuit c = svsim::qasm::parse_qasm(inputs[i].qasm);
      ref.reset_state();
      ref.run(c);
      ref_shots[i] = ref.sample(kShots);
      ref_s += t.seconds();
      ref_state[i] = ref.state();
    }
  }

  // One untimed round first, so lazy set-up (first-run allocations, PE
  // start-up) is finished before anything is timed.
  for (const CircuitInput& in : inputs) {
    sim->reset_state();
    sim->run(svsim::qasm::parse_qasm(in.qasm));
    (void)sim->sample(kShots);
  }

  SpanLog log;
  Layers layers;
  std::vector<Item> items;
  std::vector<double> part_s(inputs.size(), 0);
  std::vector<int> part_n(inputs.size(), 0);
  double max_err = 0;
  Timer budget;
  for (int round = 0;; ++round) {
    const bool traced = args.trace && round % 2 == 1;
    SpanLog* lg = traced ? &log : nullptr;
    Timer round_t;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      Item it;
      it.input = static_cast<int>(i);
      it.traced = traced;
      it.round = round;
      const int id = static_cast<int>(items.size());
      std::vector<IdxType> shots;
      Circuit c(1);
      bool threw = false;
      try {
        Timer t;
        {
          Scope root(lg, "circuit", id);
          {
            Scope s(lg, "qasm.parse", id);
            c = svsim::qasm::parse_qasm(inputs[i].qasm);
          }
          {
            Scope s(lg, "core.reset", id);
            sim->reset_state();
          }
          {
            Scope s(lg, "core.run", id);
            sim->run(c);
          }
          if (traced) {
            Scope s(lg, "trace.report", id);
            it.facts = facts_of(sim->last_report());
          }
          {
            Scope s(lg, "core.sample", id);
            shots = sim->sample(kShots);
          }
        }
        it.total_s = it.circuit_s = t.seconds();
      } catch (const std::exception& e) {
        threw = true;
        out->notes.push_back(std::string("item threw: ") + e.what());
      }
      it.parsed_gates = static_cast<std::uint64_t>(c.n_gates());
      ++out->attempted;

      // --- outside the timed region ---
      CheckResult chk;
      if (threw) {
        chk.fail("threw");
      } else if (partitioned) {
        chk = check_against_reference(shots, ref_shots[i], sim->state(),
                                      ref_state[i]);
        part_s[i] += it.total_s;
        ++part_n[i];
      } else {
        auto* single = static_cast<svsim::SingleSim*>(sim.get());
        const AmpFn amp = [single](std::uint64_t k) {
          return std::complex<double>(single->real()[k], single->imag()[k]);
        };
        chk = check_closed_form(inputs[i], shots, amp,
                                probe_indices(spec.n_qubits, args.seed + i));
      }
      max_err = std::max(max_err, chk.max_err);
      if (!chk.ok) {
        ++out->failed;
        out->notes.push_back("check failed (" + inputs[i].family + "): " + chk.why);
      }
      if (traced && !threw) layers.take(it, c, it.input);
      items.push_back(it);
    }
    const double last = round_t.seconds();
    const int min_rounds = args.trace ? 2 : 1;
    if (round + 1 >= min_rounds && budget.seconds() + last > args.seconds) break;
  }

  if (!args.trace) {
    end_to_end(spec, items, setup, out);
    return;
  }

  // Fusion is on neither user path: price it per input, outside the items.
  for (const CircuitInput& in : inputs) {
    const Circuit c = svsim::qasm::parse_qasm(in.qasm);
    svsim::FusionStats st;
    Timer t;
    {
      Scope s(&log, "ir.fusion", -1);
      (void)svsim::fuse_gates(c, &st);
    }
    layers.fusion_ms += t.millis() / static_cast<double>(inputs.size());
    layers.fusion_before += static_cast<double>(st.gates_before);
    layers.fusion_after += static_cast<double>(st.gates_after);
  }

  fold_spans(log, items, &layers, out);
  out->add("qasm.parse_ms", layers.span("qasm.parse"), "ms");
  out->absent("vqa.build_ms", "ms", "no ansatz on a circuit workload");
  out->absent("vqa.expectation_ms", "ms", "no Hamiltonian on a circuit workload");
  out->add("trace.overhead_frac", overhead(items, false), "ratio");
  layer_metrics(spec, layers, ctor_ms, out);
  if (partitioned) {
    double part = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      part += part_n[i] ? part_s[i] / part_n[i] : 0;
    }
    out->add("core.scaling_eff", part > 0 ? ref_s / (spec.pes * part) : 0, "ratio");
  } else {
    out->absent("core.scaling_eff", "ratio", "single-PE backend");
  }
  sim.reset(); // free the state before the roof probe allocates
  roof_metrics(spec, layers, out);
  out->add("check.max_state_err", max_err, "abs");
  if (!args.trace_out.empty()) {
    std::ofstream(args.trace_out) << log.chrome_json();
    out->notes.push_back("chrome trace written to " + args.trace_out);
  }
}

// --- VQE workload ------------------------------------------------------------

void run_vqe(const WorkloadSpec& spec, const Args& args, Output* out) {
  const VqeInputs inputs = make_vqe_inputs(spec.n_qubits, args.seed);
  std::printf("input_digest %016llx (%zu parameter vectors, %zu Pauli terms)\n",
              static_cast<unsigned long long>(digest(inputs)),
              inputs.params.size(), inputs.terms.size());
  const int n = spec.n_qubits;

  svsim::vqa::Hamiltonian h;
  std::unique_ptr<Simulator> sim;
  std::vector<double> ctor_ms;
  const std::vector<double> setup = timed_setup(
      spec,
      [&] {
        (void)svsim::vqa::build_uccsd(n, inputs.params[0]);
        h = build_hamiltonian(inputs);
      },
      &sim, &ctor_ms);

  // Oracle energies/states for the checked pool entries (outside timing).
  std::map<int, std::pair<double, StateVector>> oracle;
  for (int p : inputs.checked) {
    svsim::testing::OracleSim o(n);
    o.run(svsim::vqa::build_uccsd(n, inputs.params[static_cast<std::size_t>(p)]));
    oracle[p] = {h.expectation(o.state()), o.state()};
  }

  // One untimed pass over the pool first (see run_circuits).
  for (const auto& params : inputs.params) {
    sim->run_fresh(svsim::vqa::build_uccsd(n, params));
    (void)h.expectation(sim->state());
  }

  SpanLog log;
  Layers layers;
  std::vector<Item> items;
  double max_err = 0;
  Timer budget;
  const std::size_t pool = inputs.params.size();
  for (std::size_t k = 0;; ++k) {
    if (k >= 2 && budget.seconds() > args.seconds) break;
    Item it;
    it.input = static_cast<int>(k % pool);
    it.traced = args.trace && k % 2 == 1;
    SpanLog* lg = it.traced ? &log : nullptr;
    const int id = static_cast<int>(items.size());
    StateVector sv;
    double energy = 0;
    Circuit c(1);
    bool threw = false;
    try {
      Timer t;
      {
        Scope root(lg, "eval", id);
        {
          Scope s(lg, "vqa.build", id);
          c = svsim::vqa::build_uccsd(n, inputs.params[static_cast<std::size_t>(it.input)]);
        }
        Timer ct;
        if (it.traced) {
          // run_fresh(c) is reset_state() + run(c); traced evaluations
          // call the two halves so each gets a span.
          {
            Scope s(lg, "core.reset", id);
            sim->reset_state();
          }
          {
            Scope s(lg, "core.run", id);
            sim->run(c);
          }
          Scope s(lg, "trace.report", id);
          it.facts = facts_of(sim->last_report());
        } else {
          sim->run_fresh(c);
        }
        {
          Scope s(lg, "core.state", id);
          sv = sim->state();
        }
        it.circuit_s = ct.seconds();
        {
          Scope s(lg, "vqa.expectation", id);
          energy = h.expectation(sv);
        }
      }
      it.total_s = t.seconds();
    } catch (const std::exception& e) {
      threw = true;
      out->notes.push_back(std::string("evaluation threw: ") + e.what());
    }
    it.parsed_gates = static_cast<std::uint64_t>(c.n_gates());
    ++out->attempted;

    auto o = oracle.find(it.input);
    if (threw) {
      ++out->failed;
    } else if (o != oracle.end()) {
      const CheckResult chk = check_energy(energy, o->second.first, sv, o->second.second);
      max_err = std::max(max_err, chk.max_err);
      if (!chk.ok) {
        ++out->failed;
        out->notes.push_back("check failed: " + chk.why);
      }
    }
    // Every evaluation runs the same ansatz shape: count it once.
    if (it.traced && !threw) layers.take(it, c, 0);
    items.push_back(it);
  }
  if (!args.trace) {
    end_to_end(spec, items, setup, out);
    return;
  }

  {
    const Circuit c = svsim::vqa::build_uccsd(n, inputs.params[0]);
    svsim::FusionStats st;
    Timer t;
    {
      Scope s(&log, "ir.fusion", -1);
      (void)svsim::fuse_gates(c, &st);
    }
    layers.fusion_ms = t.millis();
    layers.fusion_before = static_cast<double>(st.gates_before);
    layers.fusion_after = static_cast<double>(st.gates_after);
  }
  fold_spans(log, items, &layers, out);
  out->absent("qasm.parse_ms", "ms", "the VQE path builds circuits, it parses no QASM");
  out->add("vqa.build_ms", layers.span("vqa.build"), "ms");
  out->add("vqa.expectation_ms", layers.span("vqa.expectation"), "ms");
  out->add("trace.overhead_frac", overhead(items, true), "ratio");
  layer_metrics(spec, layers, ctor_ms, out);
  out->absent("core.scaling_eff", "ratio", "single-PE backend");
  roof_metrics(spec, layers, out);
  out->add("check.max_state_err", max_err, "abs");
  if (!args.trace_out.empty()) {
    std::ofstream(args.trace_out) << log.chrome_json();
    out->notes.push_back("chrome trace written to " + args.trace_out);
  }
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else throw svsim::Error("unknown argument: " + k);
  }
  if (argc % 2 == 0) throw svsim::Error("arguments come in --key value pairs");
  if (a.workload.empty()) throw svsim::Error("--workload is required");
  return a;
}

void print(const Output& out) {
  const double frac = out.attempted ? double(out.failed) / out.attempted : 1;
  for (const auto& m : out.metrics) {
    std::printf("  %-28s %-16.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-28s %-16.10g %s (%ld of %ld items)\n", "failed_frac", frac,
              "ratio", out.failed, out.attempted);
  for (const std::string& n : out.notes) std::printf("# %s\n", n.c_str());
  const bool correct = out.failed == 0 && out.attempted > 0 && out.bench_ok;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", out.attempted, out.failed);
  bool first = true;
  for (const auto& m : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const WorkloadSpec& spec = workload(args.workload);
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d backend=%s "
                "n=%d pes=%d\n",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, spec.backend.c_str(),
                spec.n_qubits, spec.pes);
    Output out;
    if (spec.kind == Kind::kVqe) {
      run_vqe(spec, args, &out);
    } else {
      run_circuits(spec, args, &out);
    }
    if (args.trace) out.add("check.failed_frac",
                            out.attempted ? double(out.failed) / out.attempted : 1,
                            "ratio");
    print(out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svsim_perfbench: %s\n", e.what());
    return 2;
  }
}
