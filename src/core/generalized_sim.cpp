#include "core/generalized_sim.hpp"

#include <memory>

#include "common/timer.hpp"
#include "core/dispatch.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace svsim {

GeneralizedSim::GeneralizedSim(IdxType n_qubits, SimConfig cfg)
    : n_(n_qubits),
      dim_(obs::admit_dim("generalized", n_qubits, 1, 1, cfg.mem_limit)),
      cfg_(cfg),
      real_(static_cast<std::size_t>(dim_), obs::MemTag::kState, 0),
      imag_(static_cast<std::size_t>(dim_), obs::MemTag::kState, 0),
      cbits_(static_cast<std::size_t>(n_qubits), 0),
      rng_(cfg.seed) {
  real_[0] = 1.0;
  mctx_.cbits = cbits_.data();
}

void GeneralizedSim::reset_state() {
  real_.zero();
  imag_.zero();
  real_[0] = 1.0;
  std::fill(cbits_.begin(), cbits_.end(), 0);
  rng_.reseed(cfg_.seed);
}

LocalSpace GeneralizedSim::make_space() {
  LocalSpace sp;
  sp.real = real_.data();
  sp.imag = imag_.data();
  sp.dim = dim_;
  sp.mctx = &mctx_;
  sp.rng = &rng_;
  return sp;
}

void GeneralizedSim::load_state(const StateVector& sv) {
  SVSIM_CHECK(sv.n_qubits == n_, "state width mismatch");
  ValType* r = real_.data();
  ValType* i = imag_.data();
  scatter_parts(sv, n_, &r, &i);
}

void GeneralizedSim::apply_matrix(const Mat2& m, IdxType q) {
  const IdxType stride = pow2(q);
  const IdxType pairs = half_dim(n_);
  for (IdxType i = 0; i < pairs; ++i) {
    const IdxType p0 = pair_base(i, q);
    const IdxType p1 = p0 + stride;
    const Complex a0{real_[static_cast<std::size_t>(p0)],
                     imag_[static_cast<std::size_t>(p0)]};
    const Complex a1{real_[static_cast<std::size_t>(p1)],
                     imag_[static_cast<std::size_t>(p1)]};
    const Complex b0 = m[0] * a0 + m[1] * a1;
    const Complex b1 = m[2] * a0 + m[3] * a1;
    real_[static_cast<std::size_t>(p0)] = b0.real();
    imag_[static_cast<std::size_t>(p0)] = b0.imag();
    real_[static_cast<std::size_t>(p1)] = b1.real();
    imag_[static_cast<std::size_t>(p1)] = b1.imag();
  }
}

void GeneralizedSim::apply_matrix(const Mat4& m, IdxType q0, IdxType q1) {
  // Basis convention: |q0 q1> — q0 is the more significant matrix bit.
  const IdxType p = q0 < q1 ? q0 : q1;
  const IdxType q = q0 < q1 ? q1 : q0;
  const IdxType off0 = pow2(q0);
  const IdxType off1 = pow2(q1);
  const IdxType quads = quarter_dim(n_);
  for (IdxType i = 0; i < quads; ++i) {
    const IdxType s = quad_base(i, p, q);
    const IdxType idx[4] = {s, s + off1, s + off0, s + off0 + off1};
    Complex v[4];
    for (int k = 0; k < 4; ++k) {
      v[k] = Complex{real_[static_cast<std::size_t>(idx[k])],
                     imag_[static_cast<std::size_t>(idx[k])]};
    }
    for (int r = 0; r < 4; ++r) {
      Complex acc = 0;
      for (int c = 0; c < 4; ++c) acc += m[static_cast<std::size_t>(r * 4 + c)] * v[c];
      real_[static_cast<std::size_t>(idx[r])] = acc.real();
      imag_[static_cast<std::size_t>(idx[r])] = acc.imag();
    }
  }
}

void GeneralizedSim::apply_gate(const Gate& g) {
  // Runtime parse-and-branch per gate — the dispatch cost the paper's
  // function-pointer design eliminates.
  switch (g.op) {
    case OP::M:
      kernels::kern_measure(g, make_space(), 0, half_dim(n_));
      return;
    case OP::MA:
      kernels::kern_measure_all(g, make_space(), 0, dim_);
      return;
    case OP::RESET:
      kernels::kern_reset(g, make_space(), 0, half_dim(n_));
      return;
    case OP::BARRIER:
      return;
    default:
      break;
  }
  const OpInfo& info = op_info(g.op);
  if (info.n_qubits == 1) {
    apply_matrix(matrix_1q(g), g.qb0);
  } else {
    apply_matrix(matrix_2q(g), g.qb0, g.qb1);
  }
}

void GeneralizedSim::run(const Circuit& circuit) {
  SVSIM_CHECK(circuit.n_qubits() == n_, "circuit width != simulator width");
  static obs::Counter& runs =
      obs::Registry::global().counter("runs.generalized");
  runs.add();
  obs::RunReport& rep = begin_report(circuit, 1);
  std::unique_ptr<obs::GateRecorder> rec;
  if (profiling_on(cfg_)) {
    rec = std::make_unique<obs::GateRecorder>(1, obs::Trace::global().enabled());
  }
  const std::unique_ptr<obs::HealthMonitor> health = make_health(cfg_);
  obs::FlightRecorder* flight = flight_on(cfg_);
  if (flight != nullptr) flight->begin_run(name(), n_, 1);
  obs::FlightRing* ring = flight != nullptr ? flight->ring(0) : nullptr;
  const std::uint64_t every =
      health != nullptr && health->every_n() > 0
          ? static_cast<std::uint64_t>(health->every_n())
          : 0;
  const std::uint64_t n_gates = circuit.gates().size();
  {
    Timer::ScopedAccum wall(rep.wall_seconds);
    std::uint64_t gate_id = 0;
    for (const Gate& g : circuit.gates()) {
      ++gate_id;
      detail::flight_gate_event(ring, gate_id, g);
      {
        obs::Span span(rec.get(), 0, g.op);
        apply_gate(g);
      }
      if (every != 0 && (gate_id % every == 0 || gate_id == n_gates)) {
        if (detail::health_checkpoint(make_space(), health.get(), ring,
                                      gate_id)) {
          break;
        }
      }
    }
  }
  if (rec) rec->finish(rep, name());
  if (health) health->finish(rep);
  if (flight != nullptr) set_flight_pending(1);
}

StateVector GeneralizedSim::state() const {
  const ValType* r = real_.data();
  const ValType* i = imag_.data();
  return gather_parts(n_, n_, &r, &i, {});
}

std::vector<IdxType> GeneralizedSim::sample(IdxType shots) {
  return sample_via_run(shots, &mctx_);
}

} // namespace svsim
