// Tests for the thread-based PGAS runtime: symmetric allocation, one-sided
// get/put semantics, atomics, barriers, collectives, traffic accounting.
#include <gtest/gtest.h>

#include <atomic>

#include "common/error.hpp"
#include "shmem/shmem.hpp"

namespace svsim::shmem {
namespace {

TEST(Shmem, RejectsNonPow2PeCounts) {
  EXPECT_THROW(Runtime(3), Error);
  EXPECT_THROW(Runtime(0), Error);
  EXPECT_NO_THROW(Runtime(1, 1 << 16));
  EXPECT_NO_THROW(Runtime(4, 1 << 16));
}

TEST(Shmem, SymmetricAllocationSameOffsetEverywhere) {
  Runtime rt(4, 1 << 20);
  std::atomic<int> failures{0};
  rt.run([&](Ctx& ctx) {
    double* a = ctx.malloc_sym<double>(100);
    double* b = ctx.malloc_sym<double>(50);
    // The two objects must not overlap, and translate(a, pe) of my own pe
    // must be the identity.
    if (ctx.translate(a, ctx.pe()) != a) failures.fetch_add(1);
    if (ctx.translate(b, ctx.pe()) != b) failures.fetch_add(1);
    if (b < a + 100) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Shmem, OneSidedPutThenGetAfterBarrier) {
  Runtime rt(4, 1 << 20);
  rt.run([&](Ctx& ctx) {
    double* data = ctx.malloc_sym<double>(8);
    // Each PE writes its id into slot 0 of the *next* PE's copy.
    const int next = (ctx.pe() + 1) % ctx.n_pes();
    ctx.p(&data[0], static_cast<double>(ctx.pe()), next);
    ctx.barrier_all();
    // After the barrier I must see my predecessor's value locally.
    const int prev = (ctx.pe() + ctx.n_pes() - 1) % ctx.n_pes();
    EXPECT_EQ(data[0], static_cast<double>(prev));
    // And a one-sided get from any PE sees that PE's own predecessor.
    const double got = ctx.g(&data[0], next);
    EXPECT_EQ(got, static_cast<double>(ctx.pe()));
  });
}

TEST(Shmem, BlockGetPut) {
  Runtime rt(2, 1 << 20);
  rt.run([&](Ctx& ctx) {
    double* data = ctx.malloc_sym<double>(64);
    for (int i = 0; i < 64; ++i) data[i] = ctx.pe() * 100.0 + i;
    ctx.barrier_all();
    double local[64];
    const int other = 1 - ctx.pe();
    ctx.get(local, data, 64, other);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(local[i], other * 100.0 + i);
    }
    ctx.barrier_all();
    // Block put back into the other PE, then verify via local read.
    for (double& v : local) v += 1000.0;
    ctx.put(data, local, 64, other);
    ctx.barrier_all();
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(data[i], ctx.pe() * 100.0 + i + 1000.0);
    }
  });
}

TEST(Shmem, AtomicFetchAddAccumulatesAcrossPes) {
  Runtime rt(8, 1 << 18);
  rt.run([&](Ctx& ctx) {
    double* counter = ctx.malloc_sym<double>(1);
    ctx.barrier_all();
    // Everyone adds its (pe+1) into PE 0's counter concurrently.
    ctx.atomic_fetch_add(&counter[0], static_cast<double>(ctx.pe() + 1), 0);
    ctx.barrier_all();
    if (ctx.pe() == 0) {
      EXPECT_EQ(counter[0], 36.0); // 1+2+...+8
    }
  });
}

TEST(Shmem, Collectives) {
  Runtime rt(4, 1 << 18);
  rt.run([&](Ctx& ctx) {
    const double v = ctx.pe() + 1.0;
    EXPECT_EQ(ctx.all_reduce_sum(v), 10.0);
    EXPECT_EQ(ctx.all_reduce_max(v), 4.0);
    EXPECT_EQ(ctx.all_reduce_min(v), 1.0);
    const auto all = ctx.all_gather(v);
    ASSERT_EQ(all.size(), 4u);
    for (int p = 0; p < 4; ++p) EXPECT_EQ(all[static_cast<std::size_t>(p)], p + 1.0);
    EXPECT_EQ(ctx.all_reduce_sum_i64(ctx.pe()), 6);
  });
}

TEST(Shmem, Broadcast) {
  Runtime rt(4, 1 << 18);
  rt.run([&](Ctx& ctx) {
    double* data = ctx.malloc_sym<double>(16);
    if (ctx.pe() == 2) {
      for (int i = 0; i < 16; ++i) data[i] = 7.0 + i;
    }
    ctx.broadcast(data, 16, 2);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(data[i], 7.0 + i);
  });
}

TEST(Shmem, TrafficCountersDistinguishLocalAndRemote) {
  Runtime rt(2, 1 << 18);
  rt.run([&](Ctx& ctx) {
    double* data = ctx.malloc_sym<double>(4);
    ctx.barrier_all();
    ctx.g(&data[0], ctx.pe());      // local get
    ctx.g(&data[0], 1 - ctx.pe()); // remote get
    ctx.p(&data[1], 1.0, 1 - ctx.pe()); // remote put
    ctx.barrier_all();
  });
  const TrafficStats total = rt.aggregate_traffic();
  EXPECT_EQ(total.local_gets, 2u);
  EXPECT_EQ(total.remote_gets, 2u);
  EXPECT_EQ(total.remote_puts, 2u);
  EXPECT_EQ(total.local_puts, 0u);
  EXPECT_EQ(total.bytes_got, 4 * sizeof(double));
  EXPECT_EQ(total.bytes_put, 2 * sizeof(double));
}

// A sweep that reads through translate()d pointers and accounts in bulk
// must leave exactly the counters per-element g() would have.
TEST(Shmem, BulkAccountedGetsEqualPerElementGets) {
  Runtime per_element(4, 1 << 16);
  Runtime bulk(4, 1 << 16);
  per_element.run([&](Ctx& ctx) {
    double* data = ctx.malloc_sym<double>(8);
    ctx.barrier_all();
    if (ctx.pe() == 1) {
      for (int pe = 0; pe < 4; ++pe) {
        for (int i = 0; i <= pe; ++i) ctx.g(&data[i], pe);
      }
    }
  });
  bulk.run([&](Ctx& ctx) {
    double* data = ctx.malloc_sym<double>(8);
    ctx.barrier_all();
    if (ctx.pe() == 1) {
      for (int pe = 0; pe < 4; ++pe) {
        const double* part = ctx.translate(data, pe);
        EXPECT_EQ(part[pe], 0.0);
        ctx.account_gets(pe, static_cast<std::uint64_t>(pe) + 1,
                         sizeof(double));
      }
    }
  });
  const TrafficStats a = per_element.aggregate_traffic();
  const TrafficStats b = bulk.aggregate_traffic();
  EXPECT_EQ(b.local_gets, a.local_gets);
  EXPECT_EQ(b.remote_gets, a.remote_gets);
  EXPECT_EQ(b.bytes_got, a.bytes_got);
  EXPECT_EQ(b.local_gets, 2u);  // PE 1 read 2 of its own
  EXPECT_EQ(b.remote_gets, 8u); // 1 + 3 + 4 from PEs 0, 2, 3
  EXPECT_EQ(bulk.traffic_matrix(), per_element.traffic_matrix());
}

TEST(Shmem, TranslateRejectsBadPeId) {
  Runtime rt(2, 1 << 12);
  EXPECT_THROW(rt.run([&](Ctx& ctx) {
                 double* p = ctx.malloc_sym<double>(4);
                 ctx.g(p, 2);
               }),
               Error);
}

TEST(Shmem, HeapExhaustionThrows) {
  Runtime rt(2, 1 << 10);
  EXPECT_THROW(
      rt.run([&](Ctx& ctx) { ctx.malloc_sym<double>(1 << 20); }),
      Error);
}

TEST(Shmem, TranslateRejectsForeignPointer) {
  Runtime rt(2, 1 << 12);
  double on_stack = 0;
  EXPECT_THROW(rt.run([&](Ctx& ctx) {
                 ctx.g(&on_stack, 1 - ctx.pe());
               }),
               Error);
}

TEST(Shmem, RunIsRepeatableAndHeapResets) {
  Runtime rt(2, 1 << 12);
  for (int iter = 0; iter < 3; ++iter) {
    rt.run([&](Ctx& ctx) {
      // Same allocation each run must succeed (heap is reset per run).
      double* p = ctx.malloc_sym<double>(64);
      p[0] = 1.0;
    });
  }
}

TEST(Shmem, SinglePeDegenerateCase) {
  Runtime rt(1, 1 << 12);
  rt.run([&](Ctx& ctx) {
    double* p = ctx.malloc_sym<double>(4);
    ctx.p(&p[2], 5.0, 0);
    ctx.barrier_all();
    EXPECT_EQ(ctx.g(&p[2], 0), 5.0);
    EXPECT_EQ(ctx.all_reduce_sum(3.0), 3.0);
  });
}

} // namespace
} // namespace svsim::shmem
