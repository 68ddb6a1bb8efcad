// Unit tests for the common substrate: aligned buffers, RNG, config.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/aligned.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace svsim {
namespace {

TEST(AlignedBuffer, AllocatesAlignedAndZeroed) {
  AlignedBuffer<ValType> buf(1000);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kBufferAlign, 0u);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0.0);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<ValType> a(16);
  a[3] = 7.5;
  ValType* p = a.data();
  AlignedBuffer<ValType> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[3], 7.5);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
}

TEST(AlignedBuffer, ZeroClearsContents) {
  AlignedBuffer<ValType> a(64);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 1.0;
  a.zero();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], 0.0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(99);
  const auto first = a.next_u64();
  a.next_u64();
  a.reseed(99);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng r(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02); // law of large numbers
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(r.next_below(17), 17u);
}

TEST(Rng, GaussianMoments) {
  Rng r(5);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.next_gaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    SVSIM_CHECK(1 == 2, "context message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context message"), std::string::npos);
  }
}

} // namespace
} // namespace svsim
