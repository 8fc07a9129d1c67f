// trace_incore: sched parsing plus core batched and fallback accesses.
//
// Set-up records the six application kernels to polymem-trace v1 text
// (their recorders take the seed as the canonical-data seed, so the data
// changes with the seed and the access pattern does not; the histogram's
// samples are seeded too) and adds a seeded phase-change program. The
// timed work parses every text with sched::parse_trace_text and issues
// every op on all five schemes: through PolyMem::read_batch/write_batch
// when the scheme serves the op conflict-free, otherwise through the
// per-element load/store fallback. One thread.
#include <memory>
#include <string>
#include <vector>

#include "apps/fft_twiddle_app.hpp"
#include "apps/histogram_app.hpp"
#include "apps/matvec_app.hpp"
#include "apps/stencil_app.hpp"
#include "apps/tiled_gemm_app.hpp"
#include "apps/transpose_app.hpp"
#include "core/polymem.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace polymem;
using sched::RecordedTrace;
using sched::TraceOp;

namespace {

struct Case {
  std::string name;
  RecordedTrace recorded;
  std::string text;
  std::vector<std::vector<std::uint64_t>> payloads;
  std::vector<std::int64_t> offsets;  // read-op output offsets
  std::size_t out_words = 0;
  core::PolyMemConfig config;         // scheme field set per memory
};

std::vector<double> seeded_values(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = static_cast<double>(rng.uniform(-64, 64)) * 0.125;
  return v;
}

/// Runs the six kernels with recorders attached; returns the recorded
/// traces plus the seeded phase program. Kernel self-checks failing is
/// a divergence.
std::vector<std::pair<std::string, RecordedTrace>> record_traces(
    std::uint64_t seed, std::vector<std::string>& errors) {
  std::vector<std::pair<std::string, RecordedTrace>> out;
  Rng rng(seed);
  auto check = [&](const char* name, const apps::AppReport& report) {
    if (!report.verified)
      errors.push_back(std::string(name) + " failed its host reference");
  };
  {
    apps::TiledGemmApp app(32, maf::Scheme::kReO);
    auto rec = app.make_recorder(seed);
    app.set_recorder(&rec);
    app.load(seeded_values(rng, 32 * 32), seeded_values(rng, 32 * 32));
    check("tiled_gemm", app.run());
    out.emplace_back("tiled_gemm", rec.finish());
  }
  {
    apps::StencilApp app(64);
    auto rec = app.make_recorder(seed);
    app.set_recorder(&rec);
    app.load_grid(seeded_values(rng, 64 * 64));
    check("stencil", app.run());
    out.emplace_back("stencil", rec.finish());
  }
  {
    apps::TransposeApp app(64);
    auto rec = app.make_recorder(seed);
    app.set_recorder(&rec);
    std::vector<hw::Word> src(64 * 64);
    for (hw::Word& w : src) w = rng.bits();
    app.load_source(src);
    check("transpose", app.run());
    out.emplace_back("transpose", rec.finish());
  }
  {
    apps::FftTwiddleApp app(32);
    auto data = app.make_data_recorder(seed);
    auto rom = app.make_rom_recorder(seed);
    app.set_recorders(&data, &rom);
    app.load(seeded_values(rng, 32 * 32));
    check("fft_twiddle", app.run());
    out.emplace_back("fft_twiddle.data", data.finish());
    out.emplace_back("fft_twiddle.rom", rom.finish());
  }
  {
    apps::HistogramScatterApp app(256, 8);
    auto rec = app.make_recorder(seed);
    app.set_recorder(&rec);
    check("histogram", app.run(4096, seed));
    out.emplace_back("histogram", rec.finish());
  }
  {
    apps::MatVecApp app(64);
    auto rec = app.make_recorder(seed);
    app.set_recorder(&rec);
    app.load_matrix(seeded_values(rng, 64 * 64));
    const std::vector<double> x = seeded_values(rng, 64);
    std::vector<double> y(64);
    check("matvec", app.run(x, y));
    out.emplace_back("matvec", rec.finish());
  }
  out.emplace_back("phase_change", phase_program(seed, 2, 4, 64, 2, 1024));
  return out;
}

bool batched_eligible(const core::PolyMem& mem, const TraceOp& op) {
  const unsigned p = mem.config().p, q = mem.config().q;
  switch (mem.supports(op.kind)) {
    case maf::SupportLevel::kAny:
      return true;
    case maf::SupportLevel::kAligned:
      return op.anchor.i % p == 0 && op.anchor.j % q == 0 &&
             op.stride.i % p == 0 && op.stride.j % q == 0;
    case maf::SupportLevel::kNone:
      return false;
  }
  return false;
}

std::int64_t pad_to(std::int64_t x, std::int64_t m) {
  return (x + m - 1) / m * m;
}

}  // namespace

PassResult trace_incore_pass(std::uint64_t seed, Tracer* tracer) {
  PassResult r;
  Probe probe(tracer);

  // ---- set-up: record, serialize, build and fill 5 memories per trace.
  const Clock::time_point s0 = Clock::now();
  std::vector<Case> cases;
  for (auto& [name, trace] : record_traces(seed, r.errors)) {
    Case c;
    c.name = name;
    c.text = sched::trace_to_string(trace);
    c.payloads = write_payloads(trace);
    c.out_words = read_offsets(trace, c.offsets);
    c.config.p = trace.p;
    c.config.q = trace.q;
    c.config.height = pad_to(trace.height, trace.p);
    c.config.width = pad_to(trace.width, trace.q);
    c.recorded = std::move(trace);
    cases.push_back(std::move(c));
  }
  r.failed += static_cast<std::int64_t>(r.errors.size());  // kernel self-checks
  const std::size_t n_schemes = std::size(maf::kAllSchemes);
  std::vector<std::unique_ptr<core::PolyMem>> mems;
  std::vector<std::vector<std::uint64_t>> outs;
  for (const Case& c : cases) {
    const std::vector<std::uint64_t> init =
        canonical_image(c.recorded, c.config.height, c.config.width);
    for (const maf::Scheme scheme : maf::kAllSchemes) {
      mems.push_back(
          std::make_unique<core::PolyMem>(c.config.with_scheme(scheme)));
      mems.back()->fill_rect({0, 0}, c.config.height, c.config.width, init);
      outs.emplace_back(c.out_words);
    }
  }
  r.setup_s = seconds_between(s0, Clock::now());

  // ---- timed work: parse each text, replay it on every scheme.
  std::vector<RecordedTrace> parsed(cases.size());
  std::vector<access::Coord> coords;
  std::int64_t parsed_ops = 0;
  double batched = 0, fallback = 0, cycles = 0;
  double read_batch_acc = 0, write_batch_acc = 0;
  r.op_ns.reserve(200000);
  const Clock::time_point w0 = Clock::now();
  const std::int32_t work_span = probe.open("bench.work");
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& c = cases[ci];
    r.call_ns.push_back(
        probe.call("sched.parse", -1, work_span,
                   [&] { parsed[ci] = sched::parse_trace_text(c.text); }));
    parsed_ops += static_cast<std::int64_t>(parsed[ci].ops.size());
    const RecordedTrace& trace = parsed[ci];
    const unsigned lanes = trace.p * trace.q;
    for (std::size_t si = 0; si < n_schemes; ++si) {
      core::PolyMem& mem = *mems[ci * n_schemes + si];
      std::vector<std::uint64_t>& out = outs[ci * n_schemes + si];
      const std::int32_t scheme_span = probe.open("bench.scheme", -1, work_span);
      for (std::size_t k = 0; k < trace.ops.size(); ++k) {
        const TraceOp& op = trace.ops[k];
        const auto op_id = static_cast<std::int64_t>(k);
        const bool is_read = op.dir == TraceOp::Dir::kRead;
        const auto words = static_cast<std::size_t>(op.count) * lanes;
        const std::span<std::uint64_t> dst =
            is_read ? std::span<std::uint64_t>(out).subspan(
                          static_cast<std::size_t>(c.offsets[k]), words)
                    : std::span<std::uint64_t>();
        const std::span<const std::uint64_t> src(c.payloads[k]);
        std::int64_t ns = 0;
        if (batched_eligible(mem, op)) {
          ns = is_read ? probe.call("core.read_batch", op_id, scheme_span,
                                    [&] { mem.read_batch(op.batch(), 0, dst); })
                       : probe.call("core.write_batch", op_id, scheme_span,
                                    [&] { mem.write_batch(op.batch(), src); });
          batched += static_cast<double>(op.count);
          (is_read ? read_batch_acc : write_batch_acc) +=
              static_cast<double>(op.count);
          cycles += static_cast<double>(op.count);
        } else {
          ns = probe.call("core.fallback", op_id, scheme_span, [&] {
            std::size_t w = 0;
            for (std::int64_t t = 0; t < op.count; ++t) {
              access::expand_into(
                  {op.kind,
                   {op.anchor.i + t * op.stride.i,
                    op.anchor.j + t * op.stride.j}},
                  trace.p, trace.q, coords);
              for (const access::Coord e : coords) {
                if (is_read)
                  dst[w++] = mem.load(e);
                else
                  mem.store(e, src[w++]);
              }
            }
          });
          fallback += static_cast<double>(op.count);
          cycles += static_cast<double>(op.count) * lanes;
        }
        r.op_ns.push_back(ns);
      }
      probe.close(scheme_span);
    }
  }
  probe.close(work_span);
  const Clock::time_point w1 = Clock::now();
  r.work_s = seconds_between(w0, w1);
  r.threads = os_threads();
  r.ops = static_cast<std::int64_t>(r.op_ns.size());
  r.accesses = batched + fallback;
  r.modeled_cycles = cycles;

  // ---- oracle: parsed == recorded, every read checksum, final images.
  std::uint64_t plan_hits = 0, plan_builds = 0;
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& c = cases[ci];
    if (parsed[ci] != c.recorded) {
      r.errors.push_back(c.name + ": parsed trace differs from the recording");
      r.failed += static_cast<std::int64_t>(c.recorded.ops.size());
      continue;
    }
    const sched::HostReplay oracle = sched::host_replay(c.recorded);
    std::vector<std::uint64_t> image(
        static_cast<std::size_t>(c.recorded.height * c.recorded.width));
    for (std::size_t si = 0; si < n_schemes; ++si) {
      core::PolyMem& mem = *mems[ci * n_schemes + si];
      for (std::int64_t i = 0; i < c.recorded.height; ++i)
        mem.dump_rect({i, 0}, 1, c.recorded.width,
                      std::span<std::uint64_t>(image).subspan(
                          static_cast<std::size_t>(i * c.recorded.width),
                          static_cast<std::size_t>(c.recorded.width)));
      const std::int64_t bad = check_against_oracle(
          c.recorded, oracle, c.offsets, outs[ci * n_schemes + si], image);
      if (bad > 0)
        r.errors.push_back(c.name + " on " +
                           maf::scheme_name(maf::kAllSchemes[si]) + ": " +
                           std::to_string(bad) + " divergent ops");
      r.failed += bad;
      const auto stats = mem.plan_cache().stats();
      plan_hits += stats.hits;
      plan_builds += stats.builds;
    }
  }
  r.counts = {{"modeled_cycles", cycles},
              {"core.batched_accesses", batched},
              {"core.fallback_accesses", fallback},
              {"core.plan_cache_hits", static_cast<double>(plan_hits)},
              {"core.plan_cache_builds", static_cast<double>(plan_builds)},
              {"sched.ops", static_cast<double>(parsed_ops)}};
  if (tracer) {
    const auto total = tracer->total_ns_by_name();
    auto per = [&](const char* name, double n) {
      const auto it = total.find(name);
      return it == total.end() || n == 0 ? 0.0 : it->second / n;
    };
    r.layer["sched.parse_ns_per_op"] =
        per("sched.parse", static_cast<double>(parsed_ops));
    r.layer["core.read_batch_ns_per_acc"] =
        per("core.read_batch", read_batch_acc);
    r.layer["core.write_batch_ns_per_acc"] =
        per("core.write_batch", write_batch_acc);
    r.layer["core.fallback_ns_per_acc"] = per("core.fallback", fallback);
  }
  r.layer["core.plan_cache_hit_frac"] =
      plan_hits + plan_builds == 0
          ? 0.0
          : static_cast<double>(plan_hits) /
                static_cast<double>(plan_hits + plan_builds);
  r.layer["core.batched_share"] = batched / (batched + fallback);
  return r;
}

}  // namespace perfbench
