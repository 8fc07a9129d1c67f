// Concurrency hammer: many client threads against a started drain loop,
// small queues forcing constant overload/retry. Run under TSan in CI
// (the tsan job's explicit concurrency gate) to prove the submit/drain
// handshake, the bounded queues and the completion path are race-free.
//
// Invariants checked:
//  - every accepted request completes exactly once with kOk (or, for
//    stragglers at stop, kShutdown) — accepted == completions;
//  - request ids are unique across all clients;
//  - read data always matches the static memory content (no torn reads).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "service/engine.hpp"

namespace polymem::service {
namespace {

using access::ParallelAccess;
using access::PatternKind;

core::PolyMemConfig cfg() {
  core::PolyMemConfig c;
  c.scheme = maf::Scheme::kReRo;
  c.p = 2;
  c.q = 4;
  c.height = 16;
  c.width = 32;
  c.read_ports = 2;
  return c;
}

/// Thread-safe recorder: completions arrive on the drain thread while the
/// client threads are still submitting.
struct CountingListener : CompletionListener {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shutdown{0};
  std::atomic<std::uint64_t> data_mismatches{0};
  std::mutex mutex;
  std::vector<RequestId> ids;

  void on_complete(const Completion& completion) override {
    if (completion.status == Status::kOk) {
      ok.fetch_add(1, std::memory_order_relaxed);
      if (completion.op == Op::kRead) {
        // tag encodes the anchor: i * 64 + j of a row access.
        const auto i = static_cast<std::int64_t>(completion.tag / 64);
        const auto j = static_cast<std::int64_t>(completion.tag % 64);
        for (std::size_t k = 0; k < completion.data.size(); ++k) {
          if (completion.data[k] !=
              static_cast<Word>(i * 1000 + j + static_cast<std::int64_t>(k))) {
            data_mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    } else {
      shutdown.fetch_add(1, std::memory_order_relaxed);
    }
    const std::lock_guard<std::mutex> lock(mutex);
    ids.push_back(completion.id);
  }
};

TEST(ServiceHammer, ManyClientsSmallQueuesDirectEngine) {
  core::PolyMem mem(cfg());
  for (std::int64_t i = 0; i < 16; ++i) {
    for (std::int64_t j = 0; j < 32; ++j) {
      mem.store({i, j}, static_cast<hw::Word>(i * 1000 + j));
    }
  }
  EngineOptions opt;
  opt.ports = 2;
  opt.queue_bound = 8;  // tiny: submitters constantly hit kOverloaded
  opt.max_coalesce = 16;
  ServiceEngine engine(mem, opt);
  runtime::ThreadPool pool(2);
  engine.start(pool);

  constexpr int kClients = 4;
  constexpr std::uint64_t kPerClient = 400;
  std::vector<CountingListener> listeners(kClients);
  std::atomic<std::uint64_t> total_accepted{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::uint64_t accepted = 0;
      for (std::uint64_t t = 0; t < kPerClient; ++t) {
        const std::int64_t i = static_cast<std::int64_t>(t % 16);
        const std::int64_t j = static_cast<std::int64_t>((t / 16) % 3) * 8;
        Request req;
        req.tenant = static_cast<Tenant>(c);
        req.op = Op::kRead;
        req.where = {PatternKind::kRow, {i, j}};
        req.tag = static_cast<std::uint64_t>(i) * 64 +
                  static_cast<std::uint64_t>(j);
        req.listener = &listeners[static_cast<std::size_t>(c)];
        const unsigned port = static_cast<unsigned>(c) % 2;
        for (int attempt = 0; attempt < 10'000; ++attempt) {
          const Status s = engine.submit(port, std::move(req));
          if (s == Status::kAccepted) {
            ++accepted;
            break;
          }
          ASSERT_EQ(s, Status::kOverloaded);  // never rejected, never lost
          std::this_thread::yield();
        }
      }
      total_accepted.fetch_add(accepted);
    });
  }
  for (auto& th : clients) th.join();
  engine.stop();

  std::uint64_t completions = 0;
  std::set<RequestId> all_ids;
  for (auto& listener : listeners) {
    completions += listener.ok.load() + listener.shutdown.load();
    EXPECT_EQ(listener.data_mismatches.load(), 0u);
    for (const RequestId id : listener.ids) {
      EXPECT_TRUE(all_ids.insert(id).second) << "id " << id << " fired twice";
    }
  }
  EXPECT_EQ(completions, total_accepted.load());
  EXPECT_EQ(engine.stats().accepted, total_accepted.load());
  EXPECT_GT(engine.stats().shed, 0u);  // the tiny queues really shed
  EXPECT_LE(engine.stats().max_queue_depth, 8u);
}

}  // namespace
}  // namespace polymem::service
