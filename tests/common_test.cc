// Tests for the common substrate: Status/Result, string helpers, streams,
// and the sliding window (including eviction callbacks and growth).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/io.h"
#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"

namespace smpx {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token at offset 12");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token at offset 12");
  EXPECT_EQ(s.ToString(), "ParseError: bad token at offset 12");
}

TEST(StatusTest, CopyPreservesError) {
  Status s = Status::NotFound("x");
  Status t = s;
  EXPECT_EQ(t.code(), StatusCode::kNotFound);
  EXPECT_EQ(t.message(), "x");
}

Status FailingHelper() { return Status::IoError("disk on fire"); }

Status Propagates() {
  SMPX_RETURN_IF_ERROR(FailingHelper());
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  EXPECT_EQ(Propagates().code(), StatusCode::kIoError);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  SMPX_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 21);

  Result<int> err = ParsePositive(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(4), 8);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("<description", "<desc"));
  EXPECT_FALSE(StartsWith("<d", "<desc"));
  EXPECT_TRUE(EndsWith("foo.xml", ".xml"));
  EXPECT_FALSE(EndsWith("xml", ".xml"));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringsTest, Split) {
  auto parts = Split("a/b//c", '/');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, NameCharClasses) {
  EXPECT_TRUE(IsNameStartChar('a'));
  EXPECT_TRUE(IsNameStartChar('_'));
  EXPECT_FALSE(IsNameStartChar('1'));
  EXPECT_TRUE(IsNameChar('1'));
  EXPECT_TRUE(IsNameChar('-'));
  EXPECT_FALSE(IsNameChar('>'));
  EXPECT_FALSE(IsNameChar('/'));
  EXPECT_FALSE(IsNameChar(' '));
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00B");
  EXPECT_EQ(HumanBytes(2.5 * 1024 * 1024), "2.50MB");
}

TEST(MemoryInputStreamTest, ReadsInChunks) {
  MemoryInputStream in("hello world");
  char buf[128];  // Read fills up to `len` bytes: the buffer must hold them
  auto r = in.Read(buf, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 4u);
  EXPECT_EQ(std::string(buf, 4), "hell");
  r = in.Read(buf, 100);
  EXPECT_EQ(*r, 7u);
  EXPECT_EQ(std::string(buf, 7), "o world");
  r = in.Read(buf, 4);
  EXPECT_EQ(*r, 0u) << "EOF reached";
}

TEST(FileRoundTripTest, WriteThenRead) {
  std::string path = testing::TempDir() + "/smpx_io_test.txt";
  ASSERT_TRUE(WriteStringToFile(path, "round trip \0 data").ok());
  auto r = ReadFileToString(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "round trip \0 data");
  std::remove(path.c_str());
}

TEST(FileRoundTripTest, MissingFileIsIoError) {
  auto r = ReadFileToString("/nonexistent/smpx/file.xml");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(SlidingWindowTest, ReadsWholeStreamThroughSmallWindow) {
  std::string data(1000, '\0');
  std::iota(data.begin(), data.end(), 0);
  MemoryInputStream in(data);
  SlidingWindow win(&in, 64);
  for (uint64_t pos = 0; pos < data.size(); ++pos) {
    win.set_lock(pos);
    ASSERT_EQ(win.Ensure(pos, 1), 1u) << pos;
    EXPECT_EQ(win.At(pos), data[static_cast<size_t>(pos)]);
  }
  EXPECT_TRUE(win.AtEnd(data.size()));
  EXPECT_FALSE(win.AtEnd(0));
}

TEST(SlidingWindowTest, EvictionSeesEveryByteInOrder) {
  std::string data;
  for (int i = 0; i < 500; ++i) data += static_cast<char>('a' + i % 26);
  MemoryInputStream in(data);
  SlidingWindow win(&in, 64);
  std::string evicted;
  uint64_t expected_next = 0;
  win.set_evict_fn([&](uint64_t begin, std::string_view bytes) {
    EXPECT_EQ(begin, expected_next);
    expected_next = begin + bytes.size();
    evicted.append(bytes);
  });
  for (uint64_t pos = 0; pos < data.size(); pos += 10) {
    win.set_lock(pos);
    win.Ensure(pos, 10);
  }
  win.set_lock(data.size());
  win.Ensure(data.size(), 1);
  EXPECT_EQ(evicted, data);
}

TEST(SlidingWindowTest, GrowsWhenLockedSpanExceedsCapacity) {
  std::string data(4096, 'q');
  MemoryInputStream in(data);
  SlidingWindow win(&in, 64);
  win.set_lock(0);  // nothing may be evicted
  ASSERT_EQ(win.Ensure(0, 2000), 2000u);
  EXPECT_GE(win.capacity(), 2000u);
  EXPECT_GE(win.max_capacity_used(), 2000u);
  std::string_view v = win.View(0, 2000);
  EXPECT_EQ(v.substr(0, 5), "qqqqq");
}

TEST(SlidingWindowTest, ViewAcrossRefillKeepsAbsolutePositions) {
  std::string data;
  for (int i = 0; i < 300; ++i) data += std::to_string(i % 10);
  MemoryInputStream in(data);
  SlidingWindow win(&in, 64);
  win.set_lock(250);
  std::string_view v = win.View(250, 20);
  ASSERT_GE(v.size(), 20u);
  EXPECT_EQ(v.substr(0, 3), data.substr(250, 3));
}

TEST(SlidingWindowTest, SpanAndRefillAtReturnMaximalResidentViews) {
  std::string data;
  for (int i = 0; i < 300; ++i) data += static_cast<char>('a' + i % 26);
  MemoryInputStream in(data);
  SlidingWindow win(&in, 64);

  // Nothing resident yet: Span must not touch the stream.
  EXPECT_TRUE(win.Span(0).empty());

  std::string_view first = win.RefillAt(0);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, win.Span(0));
  EXPECT_EQ(first.substr(0, 3), data.substr(0, 3));
  // The span is maximal: it runs to the window limit.
  EXPECT_EQ(first.size(), static_cast<size_t>(win.limit()));

  // A mid-span position returns the resident suffix.
  std::string_view mid = win.Span(10);
  EXPECT_EQ(mid.size(), first.size() - 10);
  EXPECT_EQ(mid.substr(0, 3), data.substr(10, 3));

  // Past the resident limit Span is empty until RefillAt slides forward.
  uint64_t beyond = win.limit() + 5;
  EXPECT_TRUE(win.Span(beyond).empty());
  win.set_lock(beyond);
  std::string_view later = win.RefillAt(beyond);
  ASSERT_FALSE(later.empty());
  EXPECT_EQ(later.substr(0, 3),
            data.substr(static_cast<size_t>(beyond), 3));

  // At end of stream RefillAt returns empty.
  win.set_lock(data.size());
  EXPECT_TRUE(win.RefillAt(data.size()).empty());
}

TEST(SlidingWindowTest, JumpFarBeyondBufferBridgesGap) {
  std::string data(10000, 'x');
  data[9000] = 'Y';
  MemoryInputStream in(data);
  SlidingWindow win(&in, 64);
  std::string evicted;
  win.set_evict_fn([&](uint64_t, std::string_view bytes) {
    evicted.append(bytes);
  });
  win.set_lock(9000);
  ASSERT_GE(win.Ensure(9000, 1), 1u);
  EXPECT_EQ(win.At(9000), 'Y');
  EXPECT_EQ(evicted.size(), 9000u) << "every skipped byte passed the hook";
}

TEST(SlidingWindowTest, EnsurePastEofReturnsShortCount) {
  MemoryInputStream in("abc");
  SlidingWindow win(&in, 64);
  EXPECT_EQ(win.Ensure(0, 10), 3u);
  EXPECT_EQ(win.Ensure(3, 1), 0u);
  EXPECT_TRUE(win.AtEnd(3));
}

TEST(MemoryInputStreamTest, TakeResidentConsumesTheUnreadBytes) {
  MemoryInputStream in("hello world");
  char buf[8];
  ASSERT_EQ(*in.Read(buf, 6), 6u);
  EXPECT_EQ(in.TakeResident(), "world");
  EXPECT_EQ(*in.Read(buf, 8), 0u) << "TakeResident consumed the rest";
  EXPECT_TRUE(in.TakeResident().empty());
}

// A window over a resident stream (MemoryInputStream) is a view into the
// caller's bytes; a window over any other stream copies them. Both must
// behave identically: same return values, views, positions, capacities,
// end-of-input and eviction calls, for any access sequence the engine can
// make (a lock that only moves forward, reads at or after it, jumps far
// past the window, spans longer than the capacity).
TEST(SlidingWindowTest, ResidentViewMatchesBufferedCopy) {
  std::mt19937 rng(7);
  for (size_t capacity : {size_t{64}, size_t{100}, size_t{4096}}) {
    for (size_t doc_size : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                            size_t{65}, size_t{100}, size_t{5000},
                            size_t{20000}}) {
      for (uint64_t origin : {uint64_t{0}, uint64_t{12345}}) {
        std::string doc(doc_size, '\0');
        for (char& c : doc) c = static_cast<char>('a' + rng() % 26);
        MemoryInputStream resident_in(doc);
        MemorySource source(doc);
        SourceStream copied_in(&source);
        SlidingWindow view(&resident_in, capacity, origin);
        SlidingWindow copy(&copied_in, capacity, origin);
        std::vector<std::pair<uint64_t, std::string>> view_evicted;
        std::vector<std::pair<uint64_t, std::string>> copy_evicted;
        view.set_evict_fn([&](uint64_t begin, std::string_view data) {
          view_evicted.emplace_back(begin, std::string(data));
        });
        copy.set_evict_fn([&](uint64_t begin, std::string_view data) {
          copy_evicted.emplace_back(begin, std::string(data));
        });
        const std::string what = "capacity " + std::to_string(capacity) +
                                 " size " + std::to_string(doc_size) +
                                 " origin " + std::to_string(origin);
        uint64_t lock = origin;
        const uint64_t end = origin + doc_size;
        for (int step = 0; step < 400 && lock <= end; ++step) {
          // Mostly small forward steps; sometimes a jump past the window.
          uint64_t advance = rng() % 8 == 0 ? rng() % (3 * capacity)
                                            : rng() % 40;
          uint64_t pos = lock + rng() % 50;
          size_t len = rng() % 16 == 0 ? 1 + rng() % (2 * capacity)
                                       : 1 + rng() % 20;
          switch (rng() % 4) {
            case 0:
              ASSERT_EQ(view.Ensure(pos, len), copy.Ensure(pos, len)) << what;
              break;
            case 1:
              ASSERT_EQ(view.View(pos, len), copy.View(pos, len)) << what;
              break;
            case 2:
              ASSERT_EQ(view.Span(pos), copy.Span(pos)) << what;
              ASSERT_EQ(view.RefillAt(pos), copy.RefillAt(pos)) << what;
              break;
            default:
              ASSERT_EQ(view.AtEnd(pos), copy.AtEnd(pos)) << what;
              break;
          }
          ASSERT_EQ(view.base(), copy.base()) << what;
          ASSERT_EQ(view.limit(), copy.limit()) << what;
          ASSERT_EQ(view.capacity(), copy.capacity()) << what;
          ASSERT_EQ(view.max_capacity_used(), copy.max_capacity_used())
              << what;
          ASSERT_EQ(view.eof_seen(), copy.eof_seen()) << what;
          if (view.limit() > view.base()) {
            ASSERT_EQ(view.At(view.base()), copy.At(copy.base())) << what;
          }
          lock += advance;
          view.set_lock(lock);
          copy.set_lock(lock);
        }
        EXPECT_EQ(view_evicted, copy_evicted) << what;
        EXPECT_TRUE(view.status().ok());
      }
    }
  }
}

TEST(HashStabilityTest, Hash64ValuesArePinnedForever) {
  // These values are baked into every saved boundary-index file and
  // cursor token (document digests, table fingerprints, trailing content
  // hashes). A change here is a FORMAT BREAK: bump the index/token format
  // version instead of updating the expectations. The first two are the
  // reference XXH64 vectors, pinning cross-implementation compatibility.
  EXPECT_EQ(Hash64(""), 17241709254077376921ull);   // xxh64 ef46db3751d8e999
  EXPECT_EQ(Hash64("abc"), 4952883123889572249ull);  // xxh64 44bc2cf5ad770999
  EXPECT_EQ(Hash64("smpx boundary index"), 11744050980586103378ull);
  std::string long_input;
  for (int i = 0; i < 1000; ++i) {
    long_input += static_cast<char>('a' + i % 26);
  }
  EXPECT_EQ(Hash64(long_input), 10716435957372782249ull);
  EXPECT_EQ(Hash64("abc", 77), 3540267617390289244ull);
  EXPECT_EQ(HashCombine(1, 2), 4498758804896154761ull);
  // Single-byte sensitivity: flipping any one byte moves the hash.
  EXPECT_NE(Hash64("smpx boundary index"), Hash64("smpx boundary inde_"));
}

TEST(HashStabilityTest, Hash64StreamMatchesOneShotAtEverySplit) {
  // The chunked index build digests the document incrementally; its files
  // interoperate with Matches() only if the streaming digest is EXACTLY
  // the one-shot Hash64. Cover all tail lengths (0..31), stripe
  // boundaries, and multi-piece splits.
  std::string input;
  for (int i = 0; i < 300; ++i) {
    input += static_cast<char>('A' + (i * 7) % 61);
  }
  for (size_t len : {size_t{0}, size_t{1}, size_t{31}, size_t{32},
                     size_t{33}, size_t{64}, size_t{100}, input.size()}) {
    std::string_view piece(input.data(), len);
    const uint64_t want = Hash64(piece);
    for (size_t split = 0; split <= len; ++split) {
      Hash64Stream h;
      h.Update(piece.substr(0, split));
      h.Update(piece.substr(split));
      EXPECT_EQ(h.Digest(), want) << "len=" << len << " split=" << split;
    }
    // Byte-at-a-time, and Digest() must be repeatable (non-destructive).
    Hash64Stream one;
    for (size_t i = 0; i < len; ++i) one.Update(piece.substr(i, 1));
    EXPECT_EQ(one.Digest(), want) << "byte-at-a-time len=" << len;
    EXPECT_EQ(one.Digest(), want) << "second Digest() call len=" << len;
  }
  // Seeded variant agrees too.
  Hash64Stream seeded(77);
  seeded.Update("ab");
  seeded.Update("c");
  EXPECT_EQ(seeded.Digest(), Hash64("abc", 77));
}

TEST(FileSourceTest, ReadsAtArbitraryOffsetsWithoutMapping) {
  std::string payload;
  for (int i = 0; i < 5000; ++i) payload += static_cast<char>('a' + i % 26);
  std::string path = "/tmp/smpx_filesource_test.bin";
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());

  auto src = FileSource::Open(path);
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  EXPECT_EQ((*src)->size(), payload.size());
  // FileSource deliberately offers no contiguous view.
  EXPECT_EQ((*src)->Contiguous().data(), nullptr);

  char buf[512];
  for (uint64_t off : {uint64_t{0}, uint64_t{1}, uint64_t{4999},
                       uint64_t{4000}, uint64_t{2600}}) {
    auto n = (*src)->ReadAt(off, buf, sizeof(buf));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    size_t want = std::min<size_t>(sizeof(buf), payload.size() - off);
    ASSERT_EQ(*n, want) << "offset " << off;
    EXPECT_EQ(std::string_view(buf, *n), std::string_view(payload).substr(off, want));
  }
  // Reads at or past EOF return zero bytes, not an error.
  auto eof = (*src)->ReadAt(payload.size(), buf, sizeof(buf));
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace smpx
