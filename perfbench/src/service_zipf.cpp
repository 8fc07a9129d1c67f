// service_zipf: admission, coalescing and drain of a started
// ServiceEngine under a closed loop.
//
// One generator thread (the caller) runs kServiceClients logical
// closed-loop clients against a direct ServiceEngine over a ReRo 2x4
// PolyMem with 4 read ports and 4 submit queues (client c uses queue
// c % 4); the drain runs via start() on a 1-worker pool, so the process
// uses 2 threads. Each client submits a burst of 8..16 consecutive-row
// requests at a Zipf-popular column band and waits for every completion
// before its next burst. A quarter of the bursts are writes to the
// client's private row band; reads come from a shared read-only region,
// so a serial replay of the same requests is an exact oracle whatever
// interleaving the drain picked.
#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "runtime/thread_pool.hpp"
#include "service/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace polymem;

namespace {

constexpr unsigned kPorts = 4;
constexpr std::int64_t kReadRows = 32;   // shared read-only region
constexpr std::int64_t kBandRows = 16;   // private write band per client
constexpr std::int64_t kWidth = 128;
constexpr std::size_t kBurstsPerClient = 600;

struct Burst {
  service::Op op = service::Op::kRead;
  access::Coord anchor;  // first request; the rest walk down the rows
  std::int64_t len = 0;
  std::size_t first_tag = 0;
};

/// Collects completions into per-tag slots; the generator polls the
/// per-client outstanding counters.
class Sink final : public service::CompletionListener {
 public:
  Sink(std::size_t requests, unsigned lanes, unsigned clients)
      : lanes_(lanes),
        data_(requests * lanes),
        done_ns_(requests),
        ok_(requests),
        outstanding_(clients) {}

  void on_complete(const service::Completion& c) override {
    const auto slot = static_cast<std::size_t>(c.tag);
    done_ns_[slot] = Clock::now().time_since_epoch().count();
    ok_[slot] = c.status == service::Status::kOk;
    if (c.op == service::Op::kRead && ok_[slot])
      std::copy(c.data.begin(), c.data.end(),
                data_.begin() + static_cast<std::ptrdiff_t>(slot * lanes_));
    outstanding_[c.tenant].fetch_sub(1, std::memory_order_release);
  }

  std::atomic<std::int64_t>& outstanding(unsigned client) {
    return outstanding_[client];
  }
  const std::vector<hw::Word>& data() const { return data_; }
  const std::vector<std::int64_t>& done_ns() const { return done_ns_; }
  const std::vector<char>& ok() const { return ok_; }

 private:
  unsigned lanes_;
  std::vector<hw::Word> data_;
  std::vector<std::int64_t> done_ns_;
  std::vector<char> ok_;
  std::vector<std::atomic<std::int64_t>> outstanding_;
};

core::PolyMemConfig service_config() {
  core::PolyMemConfig c;
  c.scheme = maf::Scheme::kReRo;
  c.p = 2;
  c.q = 4;
  c.read_ports = kPorts;
  c.height = kReadRows + kServiceClients * kBandRows;
  c.width = kWidth;
  return c;
}

std::vector<hw::Word> write_payload(std::size_t tag, unsigned lanes) {
  std::vector<hw::Word> p(lanes);
  for (unsigned l = 0; l < lanes; ++l)
    p[l] = runtime::derive_seed(0x5e41ce + tag, l);
  return p;
}

}  // namespace

PassResult service_zipf_pass(std::uint64_t seed, Tracer* tracer) {
  PassResult r;
  Probe probe(tracer);
  const core::PolyMemConfig cfg = service_config();
  const unsigned lanes = cfg.lanes();

  // ---- set-up: memory, fill, bursts + payloads, started engine.
  const Clock::time_point s0 = Clock::now();
  core::PolyMem mem(cfg);
  std::vector<hw::Word> fill(static_cast<std::size_t>(cfg.height * cfg.width));
  {
    Rng rng(seed);
    for (hw::Word& w : fill) w = rng.bits();
  }
  mem.fill_rect({0, 0}, cfg.height, cfg.width, fill);

  std::vector<std::vector<Burst>> bursts(kServiceClients);
  std::size_t requests = 0;
  const Zipf zipf(static_cast<std::size_t>(kWidth / lanes), 0.9);
  for (unsigned c = 0; c < kServiceClients; ++c) {
    Rng rng(runtime::derive_seed(seed, c));
    for (std::size_t b = 0; b < kBurstsPerClient; ++b) {
      Burst burst;
      burst.len = rng.uniform(8, 16);
      const auto j0 = static_cast<std::int64_t>(zipf(rng)) * lanes;
      if (rng.chance(0.25)) {
        burst.op = service::Op::kWrite;
        burst.anchor = {kReadRows + c * kBandRows +
                            rng.uniform(0, kBandRows - burst.len),
                        j0};
      } else {
        burst.anchor = {rng.uniform(0, kReadRows - burst.len), j0};
      }
      burst.first_tag = requests;
      requests += static_cast<std::size_t>(burst.len);
      bursts[c].push_back(burst);
    }
  }
  std::vector<std::vector<hw::Word>> payloads(requests);
  for (const auto& client : bursts)
    for (const Burst& b : client)
      if (b.op == service::Op::kWrite)
        for (std::int64_t k = 0; k < b.len; ++k)
          payloads[b.first_tag + static_cast<std::size_t>(k)] =
              write_payload(b.first_tag + static_cast<std::size_t>(k), lanes);
  Sink sink(requests, lanes, kServiceClients);
  std::vector<std::int64_t> submit_ns(requests);
  runtime::ThreadPool pool(1);
  service::EngineOptions opts;
  opts.ports = kPorts;
  opts.queue_bound = 256;  // > one client burst per queue: nothing sheds
  service::ServiceEngine engine(mem, opts);
  engine.start(pool);
  r.setup_s = seconds_between(s0, Clock::now());

  // ---- timed work: the closed loop.
  std::vector<std::size_t> next(kServiceClients, 0);
  std::int64_t not_accepted = 0;
  unsigned cursor = 0;
  auto find_ready = [&]() -> int {
    for (unsigned k = 0; k < kServiceClients; ++k) {
      const unsigned c = (cursor + k) % kServiceClients;
      if (next[c] < bursts[c].size() &&
          sink.outstanding(c).load(std::memory_order_acquire) == 0)
        return static_cast<int>(c);
    }
    return -1;
  };
  auto all_done = [&] {
    for (unsigned c = 0; c < kServiceClients; ++c)
      if (next[c] < bursts[c].size() ||
          sink.outstanding(c).load(std::memory_order_acquire) != 0)
        return false;
    return true;
  };
  const Clock::time_point w0 = Clock::now();
  const std::int32_t work_span = probe.open("bench.work");
  for (;;) {
    int ready = find_ready();
    if (ready < 0) {
      if (all_done()) break;
      const Clock::time_point t0 = Clock::now();
      while ((ready = find_ready()) < 0 && !all_done())
        std::this_thread::yield();
      if (tracer) tracer->record("service.wait", t0, Clock::now(), -1, work_span);
      if (ready < 0) break;
    }
    const auto c = static_cast<unsigned>(ready);
    cursor = (c + 1) % kServiceClients;
    const Burst& b = bursts[c][next[c]++];
    sink.outstanding(c).store(b.len, std::memory_order_relaxed);
    const std::int32_t burst_span = probe.open("bench.burst", c, work_span);
    for (std::int64_t k = 0; k < b.len; ++k) {
      const std::size_t tag = b.first_tag + static_cast<std::size_t>(k);
      service::Request req;
      req.tenant = c;
      req.op = b.op;
      req.where = {access::PatternKind::kRow, {b.anchor.i + k, b.anchor.j}};
      req.tag = tag;
      req.listener = &sink;
      req.payload = std::move(payloads[tag]);
      service::Status status = service::Status::kAccepted;
      submit_ns[tag] = Clock::now().time_since_epoch().count();
      probe.call("service.submit", static_cast<std::int64_t>(tag), burst_span,
                 [&] { status = engine.submit(c % kPorts, std::move(req)); });
      if (status != service::Status::kAccepted) {
        ++not_accepted;
        sink.outstanding(c).fetch_sub(1, std::memory_order_release);
      }
    }
    probe.close(burst_span);
  }
  probe.close(work_span);
  const Clock::time_point w1 = Clock::now();
  r.work_s = seconds_between(w0, w1);
  r.threads = os_threads();
  engine.stop();
  const service::EngineStats stats = engine.stats();

  // ---- oracle: serial replay of the same requests on a fresh memory.
  core::PolyMem serial(cfg);
  serial.fill_rect({0, 0}, cfg.height, cfg.width, fill);
  std::vector<hw::Word> expect(lanes);
  std::int64_t divergent = 0;
  for (const auto& client : bursts)
    for (const Burst& b : client)
      for (std::int64_t k = 0; k < b.len; ++k) {
        const std::size_t tag = b.first_tag + static_cast<std::size_t>(k);
        const access::ParallelAccess where{access::PatternKind::kRow,
                                           {b.anchor.i + k, b.anchor.j}};
        if (b.op == service::Op::kWrite) {
          serial.write(where, write_payload(tag, lanes));
        } else {
          serial.read_into(where, 0, expect);
          if (!std::equal(expect.begin(), expect.end(),
                          sink.data().begin() +
                              static_cast<std::ptrdiff_t>(tag * lanes)))
            ++divergent;
        }
      }
  std::vector<hw::Word> got(fill.size()), want(fill.size());
  mem.dump_rect({0, 0}, cfg.height, cfg.width, got);
  serial.dump_rect({0, 0}, cfg.height, cfg.width, want);
  if (got != want) ++divergent;
  std::int64_t not_ok = 0;
  for (const char ok : sink.ok()) not_ok += !ok;
  if (divergent > 0)
    r.errors.push_back(std::to_string(divergent) +
                       " requests diverged from the serial replay");
  if (not_accepted > 0 || not_ok > 0)
    r.errors.push_back(std::to_string(not_accepted) + " shed or rejected, " +
                       std::to_string(not_ok) + " not completed ok");
  r.failed = divergent + not_accepted + not_ok;

  r.ops = static_cast<std::int64_t>(requests);
  r.serial = false;
  r.op_ns.resize(requests);
  for (std::size_t t = 0; t < requests; ++t)
    r.op_ns[t] = sink.done_ns()[t] - submit_ns[t];
  r.accesses = static_cast<double>(stats.completed_reads + stats.completed_writes);
  // The drain's modeled clock depends on how the host interleaved
  // submits and drains, so it is reported but not among the counts that
  // must repeat.
  r.modeled_cycles = static_cast<double>(stats.cycles);
  r.counts = {{"service.requests", static_cast<double>(requests)},
              {"service.completed_reads",
               static_cast<double>(stats.completed_reads)},
              {"service.completed_writes",
               static_cast<double>(stats.completed_writes)}};

  if (tracer) {
    const auto total = tracer->total_ns_by_name();
    const auto count = tracer->count_by_name();
    r.layer["service.submit_ns"] = total.at("service.submit") /
                                   static_cast<double>(count.at("service.submit"));
  }
  r.layer["service.mean_run_length"] = stats.mean_run_length();
  r.layer["service.compiled_share"] =
      stats.drained_requests == 0
          ? 0.0
          : static_cast<double>(stats.compiled_requests) /
                static_cast<double>(stats.drained_requests);
  r.layer["service.shed_frac"] =
      static_cast<double>(stats.shed) /
      static_cast<double>(stats.accepted + stats.shed);
  r.layer["service.max_queue_depth"] = static_cast<double>(stats.max_queue_depth);
  r.layer["service.max_in_flight"] = static_cast<double>(stats.max_in_flight);
  return r;
}

}  // namespace perfbench
