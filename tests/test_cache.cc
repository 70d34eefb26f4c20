/** @file Unit tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "mem/cache.hh"

using namespace zcomp;

namespace {

CacheConfig
tinyCache(int lines, int assoc, ReplPolicy repl = ReplPolicy::LRU)
{
    CacheConfig cfg;
    cfg.size = static_cast<uint64_t>(lines) * lineBytes;
    cfg.assoc = assoc;
    cfg.repl = repl;
    return cfg;
}

/** Probe-then-demand: the cache-level view of one demand access. */
bool
access(Cache &c, Addr line, bool is_write)
{
    return c.demand(c.probe(line), is_write);
}

/** Probe-then-fill of a line, as the hierarchy issues it. */
CacheVictim
insert(Cache &c, Addr line, bool dirty, bool is_prefetch,
       double ready_at = 0.0)
{
    CacheSlot slot = c.probe(line);
    return c.fill(slot, dirty, is_prefetch, ready_at);
}

bool
contains(const Cache &c, Addr line)
{
    return c.probe(line).hit();
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c("t", tinyCache(8, 2), false);
    EXPECT_FALSE(access(c, 0x1000, false));
    insert(c, 0x1000, false, false);
    EXPECT_TRUE(access(c, 0x1000, false));
    EXPECT_EQ(c.counters().hits, 1u);
    EXPECT_EQ(c.counters().misses, 1u);
}

TEST(Cache, ProbeIsPure)
{
    Cache c("t", tinyCache(2, 2), false);
    insert(c, 0x0, false, true);
    insert(c, 0x80, false, false);
    CacheSlot a = c.probe(0x0);
    CacheSlot miss = c.probe(0x100);
    EXPECT_TRUE(a.hit());
    EXPECT_FALSE(miss.hit());
    for (int i = 0; i < 4; i++)
        c.probe(0x0);
    // Probing counted nothing, consumed no prefetch flag and left 0x0
    // the LRU way: the next fill still evicts it.
    EXPECT_EQ(c.counters().hits + c.counters().misses, 0u);
    EXPECT_EQ(c.counters().prefetchUseful, 0u);
    CacheVictim v = c.fill(miss, false, false);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0x0u);
    EXPECT_TRUE(v.wasPrefetch);
}

TEST(Cache, WriteMarksDirtyAndEvictionReportsIt)
{
    // A 2-way cache with a single set: fill both ways then insert a
    // third line; the dirty one must come out as a writeback.
    Cache c("t", tinyCache(2, 2), false);
    insert(c, 0x0, false, false);
    insert(c, 0x80, false, false);
    access(c, 0x0, true);           // dirty line 0x0
    access(c, 0x80, false);         // 0x80 more recent
    CacheVictim v = insert(c, 0x100, false, false);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0x0u);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(c.counters().writebacks, 1u);
    EXPECT_EQ(c.counters().evictions, 1u);
}

TEST(Cache, InvalidateReturnsDirtiness)
{
    Cache c("t", tinyCache(8, 2), false);
    insert(c, 0x40, false, false);
    access(c, 0x40, true);
    EXPECT_TRUE(c.invalidate(c.probe(0x40)));
    EXPECT_FALSE(contains(c, 0x40));
    EXPECT_FALSE(c.invalidate(c.probe(0x40)));  // already gone
    EXPECT_EQ(c.counters().invalidations, 1u);
}

TEST(Cache, PrefetchAccuracyAccounting)
{
    Cache c("t", tinyCache(4, 4), false);
    insert(c, 0x000, false, true);  // prefetch fill
    insert(c, 0x040, false, true);
    EXPECT_EQ(c.counters().prefetchFills, 2u);
    // Demand hit on one prefetched line -> useful.
    EXPECT_TRUE(access(c, 0x000, false));
    EXPECT_EQ(c.counters().prefetchUseful, 1u);
    // Second hit on the same line is no longer counted as prefetch use.
    access(c, 0x000, false);
    EXPECT_EQ(c.counters().prefetchUseful, 1u);
    // Evict the unused prefetch (fill the set, then one more).
    insert(c, 0x080, false, false);
    insert(c, 0x0C0, false, false);
    insert(c, 0x100, false, false);
    EXPECT_EQ(c.counters().prefetchUnused, 1u);
}

TEST(Cache, TakePrefetchFlagCreditsOnce)
{
    Cache c("t", tinyCache(8, 2), false);
    insert(c, 0x40, false, true);
    c.takePrefetchFlag(c.probe(0x40));
    c.takePrefetchFlag(c.probe(0x40));
    EXPECT_EQ(c.counters().prefetchUseful, 1u);
    // The flag is gone: a demand hit credits nothing more, and the
    // promotion itself was not a demand access.
    EXPECT_TRUE(access(c, 0x40, false));
    EXPECT_EQ(c.counters().prefetchUseful, 1u);
    EXPECT_EQ(c.counters().hits, 1u);
}

TEST(Cache, ReadyWaitModelsInFlightFills)
{
    Cache c("t", tinyCache(8, 2), false);
    insert(c, 0x40, false, true, /*ready_at=*/100.0);
    CacheSlot s = c.probe(0x40);
    EXPECT_DOUBLE_EQ(c.readyWait(s, 60.0), 40.0);
    EXPECT_DOUBLE_EQ(c.readyWait(s, 150.0), 0.0);
    EXPECT_DOUBLE_EQ(c.readyWait(c.probe(0x9980), 0.0), 0.0); // absent
}

TEST(Cache, DirectoryPresenceBits)
{
    Cache c("l3", tinyCache(8, 2), true);
    CacheSlot s = c.probe(0x40);
    c.fill(s, false, false);
    c.markPresence(s, 3);
    c.markPresence(s, 7);
    EXPECT_EQ(c.presence(c.probe(0x40)), (1u << 3) | (1u << 7));
    EXPECT_EQ(c.presence(c.probe(0x80)), 0u);
    // Presence travels with the victim on eviction.
    insert(c, 0x240, false, false); // same set (8 lines/2-way = 4 sets)
    CacheVictim v = insert(c, 0x440, false, false);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.presence, (1u << 3) | (1u << 7));
}

TEST(Cache, SetConflictsEvictWithinSetOnly)
{
    // 8 lines, 2-way -> 4 sets. Lines mapping to set 0 are multiples
    // of 4*64 = 0x100.
    Cache c("t", tinyCache(8, 2), false);
    insert(c, 0x000, false, false);
    insert(c, 0x100, false, false);
    insert(c, 0x040, false, false); // set 1: must not evict set 0
    EXPECT_TRUE(contains(c, 0x000));
    EXPECT_TRUE(contains(c, 0x100));
    CacheVictim v = insert(c, 0x200, false, false); // set 0 overflows
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.addr == 0x000 || v.addr == 0x100);
    EXPECT_TRUE(contains(c, 0x040));
}

TEST(Cache, ReinsertResidentLineIsNotAnEviction)
{
    Cache c("t", tinyCache(8, 2), false);
    insert(c, 0x40, false, false);
    CacheVictim v = insert(c, 0x40, true, false);
    EXPECT_FALSE(v.valid);
    EXPECT_EQ(c.counters().evictions, 0u);
    insert(c, 0x240, false, false); // same set: both ways now full
    EXPECT_TRUE(contains(c, 0x40));
    // The dirty flag merged in: invalidating reports a writeback.
    EXPECT_TRUE(c.invalidate(c.probe(0x40)));
}

TEST(Cache, SrripCacheBasics)
{
    Cache c("t", tinyCache(8, 4, ReplPolicy::SRRIP), false);
    insert(c, 0x000, false, false);
    EXPECT_TRUE(access(c, 0x000, false));
    EXPECT_TRUE(contains(c, 0x000));
}

// ---------------------------------------------------------------------
// Replacement: LRU (Table 1's L1) and SRRIP (L2, L3) victim choice,
// observed through which line a fill into a full set displaces.
// ---------------------------------------------------------------------

TEST(Lru, EvictsLeastRecentlyUsed)
{
    Cache c("t", tinyCache(4, 4), false);
    for (Addr a : {0x000, 0x040, 0x080, 0x0C0})
        insert(c, a, false, false);
    // Touch 0x000, 0x080, 0x0C0 -> 0x040 is LRU.
    for (Addr a : {0x000, 0x080, 0x0C0})
        access(c, a, false);
    EXPECT_EQ(insert(c, 0x100, false, false).addr, 0x040u);
}

TEST(Lru, HitRefreshesRecency)
{
    Cache c("t", tinyCache(2, 2), false);
    insert(c, 0x000, false, false);
    insert(c, 0x040, false, false);
    access(c, 0x000, false);
    EXPECT_EQ(insert(c, 0x080, false, false).addr, 0x040u);
    // 0x080 is now the most recent; a hit makes 0x000 more recent.
    access(c, 0x000, false);
    EXPECT_EQ(insert(c, 0x0C0, false, false).addr, 0x080u);
}

TEST(Lru, SetsAreIndependent)
{
    // 2 sets x 2 ways: even line numbers map to set 0, odd to set 1.
    Cache c("t", tinyCache(4, 2), false);
    insert(c, 0x000, false, false);
    insert(c, 0x080, false, false);
    insert(c, 0x0C0, false, false);     // set 1, older
    insert(c, 0x040, false, false);     // set 1, newer
    access(c, 0x000, false);
    EXPECT_EQ(insert(c, 0x100, false, false).addr, 0x080u);
    // Hits and fills in set 0 must not affect set 1.
    EXPECT_EQ(insert(c, 0x140, false, false).addr, 0x0C0u);
}

TEST(Srrip, InsertsAtLongRereference)
{
    Cache c("t", tinyCache(4, 4, ReplPolicy::SRRIP), false);
    for (Addr a : {0x000, 0x040, 0x080, 0x0C0})
        insert(c, a, false, false);
    // Nobody at the distant RRPV: aging takes every way there, and
    // way 0 goes first.
    EXPECT_EQ(insert(c, 0x100, false, false).addr, 0x000u);
    // The new line went in below distant, so the next victim is an
    // aged old line, not the newest one.
    EXPECT_EQ(insert(c, 0x140, false, false).addr, 0x040u);
}

TEST(Srrip, HitPromotesToZeroAndAgingWorks)
{
    Cache c("t", tinyCache(2, 2, ReplPolicy::SRRIP), false);
    insert(c, 0x000, false, false);     // 2
    insert(c, 0x040, false, false);     // 2
    access(c, 0x000, false);            // 0
    // Nobody at 3: aging twice takes 0x040 there first.
    EXPECT_EQ(insert(c, 0x080, false, false).addr, 0x040u);
    // The hit line keeps its head start over the newly inserted one.
    EXPECT_EQ(insert(c, 0x0C0, false, false).addr, 0x080u);
}

TEST(Srrip, ScanResistance)
{
    // A hot line that is re-referenced stays resident while scan fills
    // keep replacing each other - the signature SRRIP behaviour.
    Cache c("t", tinyCache(2, 2, ReplPolicy::SRRIP), false);
    insert(c, 0x000, false, false);
    Addr scan = 0x040;
    insert(c, scan, false, false);
    for (int i = 0; i < 5; i++) {
        access(c, 0x000, false);
        Addr next = scan + 0x80;
        EXPECT_EQ(insert(c, next, false, false).addr, scan);
        scan = next;
    }
    EXPECT_TRUE(contains(c, 0x000));
}

TEST(Cache, StaleSlotIsCaughtInDebug)
{
    Cache c("t", tinyCache(8, 2), false);
    insert(c, 0x40, false, false);
    CacheSlot hit = c.probe(0x40);
    CacheSlot miss = c.probe(0x80);
    ASSERT_TRUE(hit.hit());
    ASSERT_FALSE(miss.hit());
    // Both slots go stale: the hit's line leaves, the miss's arrives.
    c.invalidate(c.probe(0x40));
    insert(c, 0x80, false, false);
    EXPECT_FALSE(c.probe(0x40).hit());
    EXPECT_TRUE(c.probe(0x80).hit());
#if ZCOMP_DCHECK_ENABLED
    EXPECT_DEATH(c.demand(hit, false), "stale slot");
    EXPECT_DEATH(c.fill(miss, false, false), "stale miss slot");
#endif
}

TEST(Cache, WayScanAtTableGeometries)
{
    // The L1 (8-way), L3 (12-way) and L2 (16-way) set sizes, each as a
    // single-set cache so every line below lands in the same set.
    for (int ways : {8, 12, 16}) {
        SCOPED_TRACE(ways);
        Cache c("t", tinyCache(ways, ways), false);
        auto line = [](int i) { return static_cast<Addr>(i) * lineBytes; };
        for (int i = 0; i < ways; i++) {
            CacheSlot s = c.probe(line(i));
            ASSERT_FALSE(s.hit());
            c.fill(s, false, false);
            EXPECT_EQ(s.way, i) << "fill must take the first empty way";
        }
        for (int i = 0; i < ways; i++) {
            CacheSlot s = c.probe(line(i));
            EXPECT_EQ(s.set, 0);
            EXPECT_EQ(s.way, i) << "hit at every way";
        }
        EXPECT_FALSE(c.probe(line(ways)).hit());
        // Free a middle way, then the highest one: the next two fills
        // take them in way order, with no eviction.
        int mid = ways / 2;
        c.invalidate(c.probe(line(ways - 1)));
        c.invalidate(c.probe(line(mid)));
        for (int expect : {mid, ways - 1}) {
            CacheSlot s = c.probe(line(ways + expect));
            EXPECT_FALSE(c.fill(s, false, false).valid);
            EXPECT_EQ(s.way, expect);
            EXPECT_EQ(c.probe(line(ways + expect)).way, expect);
        }
        EXPECT_EQ(c.counters().evictions, 0u);
        EXPECT_EQ(c.validLines(), static_cast<uint64_t>(ways));
    }
}

// ---------------------------------------------------------------------
// Property test: the LRU cache model against a straightforward
// reference implementation over a random access stream.
// ---------------------------------------------------------------------

#include <list>
#include <map>

#include "common/rng.hh"

namespace {

/** Reference set-associative LRU cache using std::list recency. */
class RefLru
{
  public:
    RefLru(int sets, int ways) : sets_(sets), ways_(ways),
                                 lru_(static_cast<size_t>(sets))
    {}

    bool
    access(Addr line)
    {
        auto &set = lru_[setOf(line)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == line) {
                set.erase(it);
                set.push_front(line);
                return true;
            }
        }
        return false;
    }

    void
    insert(Addr line)
    {
        auto &set = lru_[setOf(line)];
        set.push_front(line);
        if (static_cast<int>(set.size()) > ways_)
            set.pop_back();
    }

  private:
    size_t
    setOf(Addr line) const
    {
        return static_cast<size_t>((line / lineBytes) %
                                   static_cast<uint64_t>(sets_));
    }

    int sets_;
    int ways_;
    std::vector<std::list<Addr>> lru_;
};

} // namespace

TEST(CacheProperty, LruMatchesReferenceModel)
{
    const int sets = 16, ways = 4;
    CacheConfig cfg;
    cfg.size = static_cast<uint64_t>(sets) * ways * lineBytes;
    cfg.assoc = ways;
    cfg.repl = ReplPolicy::LRU;
    Cache dut("dut", cfg, false);
    RefLru ref(sets, ways);

    Rng rng(20260706);
    for (int i = 0; i < 20000; i++) {
        // Mix of hot lines (reuse) and a cold tail.
        Addr line = rng.chance(0.7)
                        ? rng.below(static_cast<uint64_t>(sets * ways))
                              * lineBytes
                        : rng.below(1 << 14) * lineBytes;
        CacheSlot slot = dut.probe(line);
        bool hit_dut = dut.demand(slot, rng.chance(0.3));
        bool hit_ref = ref.access(line);
        ASSERT_EQ(hit_dut, hit_ref) << "divergence at access " << i
                                    << " line 0x" << std::hex << line;
        if (!hit_dut) {
            dut.fill(slot, false, false);
            ref.insert(line);
        }
    }
    EXPECT_GT(dut.counters().hits, 0u);
    EXPECT_GT(dut.counters().misses, 0u);
}

// ---------------------------------------------------------------------
// Differential test: the set-blocked Cache against the structure-of-
// arrays reference model (cache_ref.hh) over random operation mixes.
// Block offsets are computed from the associativity at run time, so
// the odd geometries are the ones that matter.
// ---------------------------------------------------------------------

#include <array>

#include "cache_ref.hh"

namespace {

std::array<uint64_t, 8>
counterFields(const CacheCounters &n)
{
    return {n.hits, n.misses, n.writebacks, n.prefetchFills,
            n.prefetchUseful, n.prefetchUnused, n.invalidations,
            n.evictions};
}

} // namespace

namespace {

/** Drive a Cache and a RefCache with one random operation mix. */
void
expectSameAsReference(CacheConfig cfg, bool directory, Rng &rng)
{
    Cache dut("dut", cfg, directory);
    RefCache ref(cfg, directory);
    // Three capacities' worth of lines, at the bottom of the address
    // space or just under the top line 32-bit tags can hold.
    uint64_t pool = 3 * cfg.size / lineBytes;
    Addr high = (1ull << 38) - (pool + 1) * lineBytes;
    int evictions = 0;
    for (int i = 0; i < 3000; i++) {
        SCOPED_TRACE(i);
        Addr line =
            (rng.chance(0.5) ? 0 : high) + rng.below(pool) * lineBytes;
        CacheSlot a = dut.probe(line);
        CacheSlot b = ref.probe(line);
        ASSERT_EQ(a.set, b.set);
        ASSERT_EQ(a.way, b.way);
        double now = static_cast<double>(rng.below(1000));
        switch (rng.below(8)) {
          case 0:
          case 1: {
            bool w = rng.chance(0.3);
            ASSERT_EQ(dut.demand(a, w), ref.demand(b, w));
            break;
          }
          case 2:
          case 3: {
            bool dirty = rng.chance(0.3);
            bool pf = rng.chance(0.4);
            CacheVictim va = dut.fill(a, dirty, pf, now);
            CacheVictim vb = ref.fill(b, dirty, pf, now);
            ASSERT_EQ(a.way, b.way);
            ASSERT_EQ(va.valid, vb.valid);
            ASSERT_EQ(va.dirty, vb.dirty);
            ASSERT_EQ(va.wasPrefetch, vb.wasPrefetch);
            ASSERT_EQ(va.addr, vb.addr);
            ASSERT_EQ(va.presence, vb.presence);
            evictions += va.valid;
            break;
          }
          case 4:
            ASSERT_EQ(dut.invalidate(a), ref.invalidate(b));
            break;
          case 5:
            ASSERT_EQ(dut.readyWait(a, now), ref.readyWait(b, now));
            if (a.hit()) {
                dut.takePrefetchFlag(a);
                ref.takePrefetchFlag(b);
            }
            break;
          case 6:
            if (directory && a.hit()) {
                int core = static_cast<int>(rng.below(16));
                dut.markPresence(a, core);
                ref.markPresence(b, core);
            }
            ASSERT_EQ(dut.presence(a), ref.presence(b));
            break;
          default:
            // Rarely: an in-place reset must equal a fresh cache.
            if (rng.chance(0.01)) {
                dut.clear();
                ref = RefCache(cfg, directory);
            }
            break;
        }
        ASSERT_EQ(counterFields(dut.counters()),
                  counterFields(ref.counters()));
    }
    EXPECT_EQ(dut.validLines(), ref.validLines());
    EXPECT_GT(evictions, 0);
}

} // namespace

TEST(CacheProperty, SetBlocksMatchSoaReference)
{
    // Set counts: a power of two (masked index) and not (modulo).
    Rng rng(20261017);
    for (int sets : {8, 6}) {
        for (int assoc : {1, 3, 8, 12, 16, 20}) {
            for (ReplPolicy repl : {ReplPolicy::LRU, ReplPolicy::SRRIP}) {
                for (int variant = 0; variant < 4; variant++) {
                    bool directory = variant & 1;
                    CacheConfig cfg = tinyCache(sets * assoc, assoc, repl);
                    cfg.hashIndex = variant & 2;
                    SCOPED_TRACE(testing::Message()
                                 << sets << " sets x " << assoc << " ways, "
                                 << (repl == ReplPolicy::LRU ? "LRU"
                                                             : "SRRIP")
                                 << ", directory " << directory
                                 << ", hashIndex " << cfg.hashIndex);
                    expectSameAsReference(cfg, directory, rng);
                    if (HasFatalFailure())
                        return;
                }
            }
        }
    }
}

TEST(CacheDeath, LineBeyondTagRangeAborts)
{
    // Tags are 32-bit line numbers and all-ones marks an empty way, so
    // the last line below 2^38 bytes is the first one a probe refuses;
    // the check is on in every build type.
    Cache c("t", tinyCache(8, 2), false);
    EXPECT_TRUE(c.probe((0xFFFFFFFFull - 1) * lineBytes).way < 0);
    EXPECT_DEATH(c.probe(0xFFFFFFFFull * lineBytes), "32-bit tags");
    EXPECT_DEATH(c.probe(1ull << 40), "32-bit tags");
}
