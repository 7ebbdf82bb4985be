package schedule

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"tagwatch/internal/aloha"
	"tagwatch/internal/epc"
	"tagwatch/internal/gen2"
	"tagwatch/internal/scenario"
)

func table(t *testing.T, cfg Config, pop []epc.EPC) *IndexTable {
	t.Helper()
	it, err := NewIndexTable(cfg, pop)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// planCovers asserts every target is covered by at least one plan mask and
// returns the set of non-targets covered.
func planCovers(t *testing.T, plan Plan, targets, pop []epc.EPC) map[epc.EPC]bool {
	t.Helper()
	isTarget := map[epc.EPC]bool{}
	for _, c := range targets {
		isTarget[c] = true
	}
	covered := map[epc.EPC]bool{}
	for _, pm := range plan.Masks {
		for _, c := range pop {
			if pm.Bitmask.Covers(c) {
				covered[c] = true
			}
		}
	}
	for _, c := range targets {
		if !covered[c] {
			t.Fatalf("target %s not covered by plan %v", c, plan.Masks)
		}
	}
	collateral := map[epc.EPC]bool{}
	for c := range covered {
		if !isTarget[c] {
			collateral[c] = true
		}
	}
	return collateral
}

func TestBitmaskCoversAndSelectCmdAgree(t *testing.T) {
	code := epc.MustParse("30f4ab12cd0045e100000001")
	mask, _ := code.Slice(8, 16)
	b := Bitmask{Mask: mask, Pointer: 8}
	if !b.Covers(code) {
		t.Fatal("self-derived window must cover")
	}
	other := epc.MustParse("e0f4ab12cd0045e100000001")
	// Window [8,24) is f4ab for both: covers other too.
	if !b.Covers(other) {
		t.Fatal("shared window must cover")
	}
	// The compiled Select command must match exactly the same tags at the
	// memory level (pointer shifted past StoredCRC+StoredPC).
	cmd := b.SelectCmd()
	if cmd.Pointer != epc.EPCWordOffset+8 {
		t.Fatalf("select pointer = %d", cmd.Pointer)
	}
	for _, c := range []epc.EPC{code, other, epc.MustParse("000000000000000000000000")} {
		mem := epc.NewMemory(c)
		if cmd.Matches(mem) != b.Covers(c) {
			t.Fatalf("Select/Covers disagree for %s", c)
		}
	}
	if b.String() == "" {
		t.Fatal("String must render")
	}
}

func fig9Population() (pop, targets []epc.EPC) {
	pop = []epc.EPC{
		epc.FromUint64(0b001110, 6),
		epc.FromUint64(0b010010, 6),
		epc.FromUint64(0b101100, 6),
		epc.FromUint64(0b110110, 6),
	}
	return pop, pop[:3]
}

func TestPaperFig9ExampleCoverageOptimal(t *testing.T) {
	// Fig. 9's "optimal" selection (covering the three targets with zero
	// non-targets, e.g. S(11₂,2,2) ∪ S(01₂,0,2)) is optimal under a pure
	// per-tag cost — i.e. τ₀ = 0, where extra rounds are free and reading
	// a collateral tag only ever hurts. The greedy must find it there.
	pop, targets := fig9Population()
	cfg := DefaultConfig()
	cfg.Cost = aloha.CostModel{Tau0: 0, TauBar: 180 * time.Microsecond}
	it := table(t, cfg, pop)
	plan, err := it.Select(targets)
	if err != nil {
		t.Fatal(err)
	}
	collateral := planCovers(t, plan, targets, pop)
	if len(collateral) != 0 {
		t.Fatalf("τ₀=0 plan should avoid the non-target; covered %v", collateral)
	}
	if plan.Collateral != 0 {
		t.Fatalf("plan.Collateral = %d, want 0", plan.Collateral)
	}
}

func TestPaperFig9ExamplePaperCost(t *testing.T) {
	// Under the measured cost model τ₀ = 19 ms dominates, so one round
	// covering all four tags (C(4) ≈ 21 ms) beats ANY two-round plan
	// (≥ 2τ₀ ≈ 38 ms) — the §5.2 point that "cost-effective selection may
	// collaterally involve non-target tags as long as their cost is less
	// than in the worst case".
	pop, targets := fig9Population()
	it := table(t, DefaultConfig(), pop)
	plan, err := it.Select(targets)
	if err != nil {
		t.Fatal(err)
	}
	planCovers(t, plan, targets, pop)
	if len(plan.Masks) != 1 {
		t.Fatalf("paper-cost plan used %d masks, want the single all-covering round", len(plan.Masks))
	}
	twoRound := 2 * aloha.PaperCostModel().Cost(2)
	if plan.TotalCost >= twoRound {
		t.Fatalf("plan cost %v must undercut the two-round alternative %v", plan.TotalCost, twoRound)
	}
}

func TestSharedPrefixCollapsesToOneMask(t *testing.T) {
	// Five targets sharing a unique prefix must be covered by ONE mask:
	// C(5) ≪ 5·C(1) because τ₀ dominates — the heart of why bitmask
	// grouping beats the naive plan.
	rng := rand.New(rand.NewSource(1))
	targets, err := epc.SequentialPopulation([]byte{0xAA, 0xBB, 0xCC}, 0, 5, 96)
	if err != nil {
		t.Fatal(err)
	}
	others, err := epc.RandomPopulation(rng, 40, 96)
	if err != nil {
		t.Fatal(err)
	}
	pop := append(append([]epc.EPC(nil), targets...), others...)
	it := table(t, DefaultConfig(), pop)
	plan, err := it.Select(targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Masks) != 1 {
		t.Fatalf("plan used %d masks, want 1 (shared prefix)", len(plan.Masks))
	}
	if plan.Masks[0].Covered < 5 {
		t.Fatalf("the mask covers %d tags, want ≥5", plan.Masks[0].Covered)
	}
	planCovers(t, plan, targets, pop)
	// And it must beat the naive plan.
	if plan.TotalCost >= plan.NaiveCost {
		t.Fatalf("grouped cost %v must beat naive %v", plan.TotalCost, plan.NaiveCost)
	}
}

func TestCoverAllInvariantRandom(t *testing.T) {
	// Property: for random populations and random target subsets, the plan
	// always covers every target.
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pop, err := epc.RandomPopulation(rng, 60, 96)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(8)
		targets := make([]epc.EPC, n)
		for i := range targets {
			targets[i] = pop[rng.Intn(len(pop))]
		}
		cfg := DefaultConfig()
		cfg.MaxLen = 48 // trim for speed; plans must still cover
		it := table(t, cfg, pop)
		plan, err := it.Select(targets)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		planCovers(t, plan, targets, pop)
		// Accounting invariants.
		var sum time.Duration
		for _, m := range plan.Masks {
			sum += m.Cost
			if m.TargetGain <= 0 {
				t.Fatalf("mask with zero gain selected: %+v", m)
			}
		}
		if !plan.UsedNaive && sum != plan.TotalCost {
			t.Fatalf("cost accounting: Σ=%v total=%v", sum, plan.TotalCost)
		}
		if plan.TotalCost > plan.NaiveCost {
			t.Fatalf("plan must never exceed the naive fallback: %v > %v", plan.TotalCost, plan.NaiveCost)
		}
	}
}

func TestNaiveFallbackTriggers(t *testing.T) {
	// Trim candidate lengths so every available mask drags in a crowd:
	// greedy's best is then worse than n' exact-EPC rounds and the plan
	// must fall back (§5.2 "we should adopt the worst option").
	var pop []epc.EPC
	for v := uint64(0); v < 64; v++ {
		pop = append(pop, epc.FromUint64(v, 8)) // 8-bit EPCs 0x00..0x3F
	}
	cfg := DefaultConfig()
	cfg.MaxLen = 2
	it := table(t, cfg, pop)
	targets := []epc.EPC{pop[0], pop[63]}
	plan, err := it.Select(targets)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UsedNaive {
		t.Fatalf("expected naive fallback; plan: %+v", plan)
	}
	if len(plan.Masks) != 2 {
		t.Fatalf("naive plan must carry one mask per target, got %d", len(plan.Masks))
	}
	planCovers(t, plan, targets, pop)
}

func TestNaivePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pop, _ := epc.RandomPopulation(rng, 10, 96)
	it := table(t, DefaultConfig(), pop)
	targets := []epc.EPC{pop[1], pop[3], pop[1]} // duplicate folded
	plan := it.NaivePlan(targets)
	if len(plan.Masks) != 2 {
		t.Fatalf("naive masks = %d, want 2", len(plan.Masks))
	}
	for _, m := range plan.Masks {
		if m.Covered != 1 || m.Bitmask.Pointer != 0 || m.Bitmask.Mask.Bits() != 96 {
			t.Fatalf("naive mask malformed: %+v", m)
		}
	}
	if plan.TotalCost != 2*aloha.PaperCostModel().Cost(1) {
		t.Fatalf("naive cost = %v", plan.TotalCost)
	}
}

func TestSelectErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pop, _ := epc.RandomPopulation(rng, 5, 96)
	it := table(t, DefaultConfig(), pop)
	if _, err := it.Select(nil); err == nil {
		t.Fatal("empty targets must error")
	}
	if _, err := it.Select([]epc.EPC{epc.MustParse("00ff00ff00ff00ff00ff00ff")}); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("unknown target error = %v", err)
	}
}

func TestIndexTableErrors(t *testing.T) {
	if _, err := NewIndexTable(DefaultConfig(), nil); err == nil {
		t.Fatal("empty population must error")
	}
	mixed := []epc.EPC{epc.FromUint64(1, 8), epc.FromUint64(1, 16)}
	if _, err := NewIndexTable(DefaultConfig(), mixed); err == nil {
		t.Fatal("mixed lengths must error")
	}
	dup := []epc.EPC{epc.FromUint64(1, 8), epc.FromUint64(1, 8)}
	if _, err := NewIndexTable(DefaultConfig(), dup); err == nil {
		t.Fatal("duplicate EPCs must error")
	}
	big := []epc.EPC{epc.New(make([]byte, 32))}
	if _, err := NewIndexTable(DefaultConfig(), big); err == nil {
		t.Fatal("oversize EPCs must error")
	}
}

func TestDuplicateTargetsFolded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pop, _ := epc.RandomPopulation(rng, 20, 96)
	it := table(t, DefaultConfig(), pop)
	plan, err := it.Select([]epc.EPC{pop[0], pop[0], pop[0]})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plan.Masks); got != 1 {
		t.Fatalf("duplicate targets should fold to one mask, got %d", got)
	}
	if plan.NaiveCost != aloha.PaperCostModel().Cost(1) {
		t.Fatalf("naive cost must count unique targets: %v", plan.NaiveCost)
	}
}

func TestRandomTieBreakDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pop, _ := epc.RandomPopulation(rng, 30, 96)
	run := func(seed int64) []Bitmask {
		cfg := DefaultConfig()
		cfg.Rand = rand.New(rand.NewSource(seed))
		it := table(t, cfg, pop)
		plan, err := it.Select(pop[:3])
		if err != nil {
			t.Fatal(err)
		}
		return plan.Bitmasks()
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatal("same seed must give same plan")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical masks")
		}
	}
}

func TestSelectCmdDrivesGen2Selection(t *testing.T) {
	// End-to-end through the air protocol: compile a plan to Select
	// commands, apply them to gen2 tags, and check exactly the covered
	// tags end up SL-asserted.
	rng := rand.New(rand.NewSource(6))
	pop, _ := epc.RandomPopulation(rng, 25, 96)
	it := table(t, DefaultConfig(), pop)
	targets := pop[:4]
	plan, err := it.Select(targets)
	if err != nil {
		t.Fatal(err)
	}
	tags := make([]*gen2.Tag, len(pop))
	for i, c := range pop {
		tags[i] = gen2.NewTag(epc.NewMemory(c))
	}
	for _, pm := range plan.Masks {
		cmd := pm.Bitmask.SelectCmd()
		for _, tag := range tags {
			tag.ApplySelect(cmd)
		}
	}
	for i, tag := range tags {
		wantSL := false
		for _, pm := range plan.Masks {
			if pm.Bitmask.Covers(pop[i]) {
				wantSL = true
			}
		}
		if tag.SL() != wantSL {
			t.Fatalf("tag %s SL=%v, want %v", pop[i], tag.SL(), wantSL)
		}
	}
	// All targets asserted.
	for i := 0; i < 4; i++ {
		if !tags[i].SL() {
			t.Fatalf("target %s not selected", pop[i])
		}
	}
}

func TestWindowMaskAndPack(t *testing.T) {
	w := windowMask(62, 4) // straddles the word boundary
	if w[0] != 0b11 || w[1]>>62 != 0b11 {
		t.Fatalf("straddling window mask wrong: %x %x", w[0], w[1])
	}
	code := epc.MustParse("8000000000000001ff000000")
	pw, ok := packEPC(code)
	if !ok {
		t.Fatal("96-bit EPC must pack")
	}
	if pw[0] != 0x8000000000000001 || pw[1] != 0xff00000000000000>>0 {
		t.Fatalf("packed = %x %x", pw[0], pw[1])
	}
}

func TestBitmapOps(t *testing.T) {
	b := newBitmap(130)
	b.set(0)
	b.set(64)
	b.set(129)
	if !b.get(64) || b.get(63) {
		t.Fatal("get/set")
	}
	if b.popcount() != 3 {
		t.Fatalf("popcount = %d", b.popcount())
	}
	o := newBitmap(130)
	o.set(64)
	if b.andCount(o) != 1 {
		t.Fatal("andCount")
	}
	b.clear(o)
	if b.get(64) || b.popcount() != 2 {
		t.Fatal("clear")
	}
	if b.key() == o.key() {
		t.Fatal("distinct bitmaps must key differently")
	}
}

func TestPointerStrideTrimsCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pop, _ := epc.RandomPopulation(rng, 20, 96)
	cfg := DefaultConfig()
	cfg.PointerStride = 8
	cfg.MaxLen = 32
	it := table(t, cfg, pop)
	plan, err := it.Select(pop[:3])
	if err != nil {
		t.Fatal(err)
	}
	planCovers(t, plan, pop[:3], pop)
}

func TestSGTINPopulationCollapsesPerProduct(t *testing.T) {
	// A realistic retail shelf: three products, each a run of SGTIN-96
	// serials. All movers of one product share a 58-bit prefix, so the
	// greedy covers them with ONE mask regardless of how many there are.
	var pop []epc.EPC
	for prod := uint64(0); prod < 3; prod++ {
		p, err := epc.SGTINPopulation(703710, 100000+prod, 5, 0, 30)
		if err != nil {
			t.Fatal(err)
		}
		pop = append(pop, p...)
	}
	it := table(t, DefaultConfig(), pop)
	// Targets: 8 serial-scattered movers of product 0.
	targets := []epc.EPC{pop[0], pop[3], pop[7], pop[11], pop[15], pop[19], pop[23], pop[29]}
	plan, err := it.Select(targets)
	if err != nil {
		t.Fatal(err)
	}
	planCovers(t, plan, targets, pop)
	// A couple of masks at most: the greedy exploits the shared prefix
	// (and may even beat the single whole-product mask by splitting on
	// serial bits — e.g. one mask for the odd serials).
	if len(plan.Masks) > 3 {
		t.Fatalf("product-grouped targets need ≤3 masks, got %d", len(plan.Masks))
	}
	// No mask leaks into the other products, and the plan must beat both
	// the whole-product round and the naive per-target plan.
	for _, m := range plan.Masks {
		if m.Covered > 30 {
			t.Fatalf("mask leaked into other products: covers %d", m.Covered)
		}
	}
	// Greedy is an approximation: it may split where the single
	// whole-product round would have been marginally cheaper, but it must
	// stay within the classic ln(n)-ish factor (here: 1.5×).
	wholeProduct := aloha.PaperCostModel().Cost(30)
	if plan.TotalCost > 3*wholeProduct/2 {
		t.Fatalf("plan cost %v strays too far from the whole-product round %v", plan.TotalCost, wholeProduct)
	}
	if plan.TotalCost >= plan.NaiveCost {
		t.Fatalf("plan cost %v must beat naive %v", plan.TotalCost, plan.NaiveCost)
	}
}

// epcWords is an EPC code packed into 64-bit words, MSB first,
// zero-padded.
type epcWords [2]uint64

func packEPC(code epc.EPC) (epcWords, bool) {
	if code.Bits() > 128 {
		return epcWords{}, false
	}
	var w epcWords
	for i, b := range code.Bytes() {
		w[i/8] |= uint64(b) << (56 - 8*(i%8))
	}
	return w, true
}

// windowMask returns words with ones at bit positions [p, p+l).
func windowMask(p, l int) epcWords {
	var m epcWords
	for i := p; i < p+l; i++ {
		m[i/64] |= 1 << (63 - i%64)
	}
	return m
}

func (b bitmap) key() string {
	buf := make([]byte, 8*len(b))
	for i, w := range b {
		for j := 0; j < 8; j++ {
			buf[8*i+j] = byte(w >> (8 * j))
		}
	}
	return string(buf)
}

// refRow is one candidate bitmask of referenceSelect.
type refRow struct {
	mask    Bitmask
	covered bitmap
	count   int
}

// referenceSelect is the planner Select replaced, kept as its oracle: it
// tests every window S(m, p, l) of every target against every tag,
// deduplicates windows through a map keyed by their coverage bytes, and
// rescans every row in each greedy iteration. Select must return exactly
// its plans and errors.
func referenceSelect(t *IndexTable, targets []epc.EPC) (Plan, error) {
	if len(targets) == 0 {
		return Plan{}, fmt.Errorf("schedule: no targets")
	}
	index := make(map[epc.EPC]int, len(t.tags))
	packed := make([]epcWords, len(t.tags))
	for i, code := range t.tags {
		index[code] = i
		packed[i], _ = packEPC(code)
	}
	idxs := make([]int, 0, len(targets))
	seen := make(map[int]struct{}, len(targets))
	for _, code := range targets {
		i, ok := index[code]
		if !ok {
			return Plan{}, fmt.Errorf("%w: %s", ErrUnknownTarget, code)
		}
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		idxs = append(idxs, i)
	}

	rows := referenceRows(t, packed, idxs)
	targetSet := newBitmap(len(t.tags))
	for _, i := range idxs {
		targetSet.set(i)
	}

	v := append(bitmap(nil), targetSet...)
	var plan Plan
	coveredAll := newBitmap(len(t.tags))
	for v.popcount() > 0 {
		bestR := -1.0
		var best []int
		for ri := range rows {
			gain := rows[ri].covered.andCount(v)
			if gain == 0 {
				continue
			}
			r := float64(gain) / float64(t.cfg.Cost.Cost(rows[ri].count))
			switch {
			case r > bestR:
				bestR = r
				best = best[:0]
				best = append(best, ri)
			case r == bestR:
				best = append(best, ri)
			}
		}
		if len(best) == 0 {
			return Plan{}, fmt.Errorf("schedule: uncoverable targets remain (internal invariant violated)")
		}
		pick := best[0]
		if t.cfg.Rand != nil && len(best) > 1 {
			pick = best[t.cfg.Rand.Intn(len(best))]
		}
		r := rows[pick]
		plan.Masks = append(plan.Masks, PlanMask{
			Bitmask:    r.mask,
			Covered:    r.count,
			TargetGain: r.covered.andCount(v),
			Cost:       t.cfg.Cost.Cost(r.count),
		})
		plan.TotalCost += t.cfg.Cost.Cost(r.count)
		for i := range coveredAll {
			coveredAll[i] |= r.covered[i]
		}
		v.clear(r.covered)
	}
	plan.Collateral = coveredAll.popcount() - func() int {
		var c int
		for i := range coveredAll {
			c += bits.OnesCount64(coveredAll[i] & targetSet[i])
		}
		return c
	}()

	plan.NaiveCost = time.Duration(len(idxs)) * t.cfg.Cost.Cost(1)
	if plan.TotalCost > plan.NaiveCost {
		naive := t.NaivePlan(targets)
		naive.NaiveCost = plan.NaiveCost
		naive.UsedNaive = true
		return naive, nil
	}
	return plan, nil
}

// referenceRows enumerates every substring S(m, p, l) of every target EPC,
// deduplicated by coverage, for referenceSelect.
func referenceRows(t *IndexTable, packed []epcWords, targets []int) []refRow {
	maxLen := t.cfg.MaxLen
	if maxLen <= 0 || maxLen > t.bits {
		maxLen = t.bits
	}
	seen := make(map[string]struct{})
	var rows []refRow
	for _, ti := range targets {
		tw := packed[ti]
		for l := 1; l <= maxLen; l++ {
			for p := 0; p+l <= t.bits; p += t.cfg.PointerStride {
				wm := windowMask(p, l)
				cov := newBitmap(len(t.tags))
				count := 0
				for i, pw := range packed {
					if (pw[0]^tw[0])&wm[0] == 0 && (pw[1]^tw[1])&wm[1] == 0 {
						cov.set(i)
						count++
					}
				}
				k := cov.key()
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				mask, err := t.tags[ti].Slice(p, l)
				if err != nil {
					continue
				}
				rows = append(rows, refRow{
					mask:    Bitmask{Mask: mask, Pointer: p},
					covered: cov,
					count:   count,
				})
			}
		}
	}
	return rows
}

// assertMatchesReference plans the targets with Select and with
// referenceSelect on separate tables, each given an identically seeded
// tie-break source when seed is non-zero, and requires identical plans
// and errors.
func assertMatchesReference(t *testing.T, name string, cfg Config, pop, targets []epc.EPC, seed int64) {
	t.Helper()
	build := func() *IndexTable {
		c := cfg
		if seed != 0 {
			c.Rand = rand.New(rand.NewSource(seed))
		}
		return table(t, c, pop)
	}
	got, gotErr := build().Select(targets)
	want, wantErr := referenceSelect(build(), targets)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: Select error %v, reference error %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: plans differ\nSelect:    %+v\nreference: %+v", name, got, want)
	}
}

// prefixPopulation draws up to n unique EPCs in a few groups; each
// group's tags share a random prefix of about two thirds of the EPC, the
// way SGTINs of one product share company and item fields. Short EPCs
// hold fewer than n such tags.
func prefixPopulation(rng *rand.Rand, n, bitLen int) []epc.EPC {
	groups := make([][]byte, 1+rng.Intn(5))
	prefix := bitLen*2/3 - rng.Intn(bitLen/4+1)
	if free := bitLen - prefix; free < 16 {
		n = min(n, len(groups)<<free/2) // stay well short of the groups' capacity
	}
	for g := range groups {
		groups[g] = make([]byte, (bitLen+7)/8)
		rng.Read(groups[g])
	}
	seen := make(map[epc.EPC]bool, n)
	var pop []epc.EPC
	for len(pop) < n {
		buf := make([]byte, (bitLen+7)/8)
		rng.Read(buf)
		g := groups[rng.Intn(len(groups))]
		for i := 0; i < prefix; i++ {
			m := byte(0x80) >> (i % 8)
			buf[i/8] = buf[i/8]&^m | g[i/8]&m
		}
		code, err := epc.NewBits(buf, bitLen)
		if err != nil {
			panic(err)
		}
		if !seen[code] {
			seen[code] = true
			pop = append(pop, code)
		}
	}
	return pop
}

// pickTargets draws k targets from pop with replacement, so duplicates
// occur, and repeats the first one at the end.
func pickTargets(rng *rand.Rand, pop []epc.EPC, k int) []epc.EPC {
	targets := make([]epc.EPC, k)
	for i := range targets {
		targets[i] = pop[rng.Intn(len(pop))]
	}
	return append(targets, targets[0])
}

func TestSelectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lengths := []int{12, 24, 64, 96, 128}
	costs := []aloha.CostModel{
		aloha.PaperCostModel(),
		{Tau0: 0, TauBar: 180 * time.Microsecond}, // no start-up cost: collateral only hurts
		{Tau0: 19 * time.Millisecond, TauBar: time.Millisecond},
	}
	for c := 0; c < 300; c++ {
		bitLen := lengths[rng.Intn(len(lengths))]
		n := 2 + rng.Intn(399)
		if bitLen == 12 {
			n = 2 + rng.Intn(200) // a 12-bit space holds a sparse 400 poorly
		}
		var pop []epc.EPC
		if rng.Intn(2) == 0 {
			var err error
			if pop, err = epc.RandomPopulation(rng, n, bitLen); err != nil {
				t.Fatal(err)
			}
		} else {
			pop = prefixPopulation(rng, n, bitLen)
		}
		cfg := DefaultConfig()
		cfg.Cost = costs[rng.Intn(len(costs))]
		if rng.Intn(3) == 0 {
			cfg.MaxLen = 1 + rng.Intn(bitLen)
		}
		cfg.PointerStride = 1 + rng.Intn(9)
		targets := pickTargets(rng, pop, 1+rng.Intn(min(n, 12)))
		if rng.Intn(20) == 0 {
			// An outsider: both sides must refuse it the same way.
			targets = append(targets, epc.FromUint64(uint64(rng.Intn(1<<12)), 12))
		}
		seed := int64(0)
		if rng.Intn(2) == 0 {
			seed = rng.Int63() | 1
		}
		name := fmt.Sprintf("case %d (n=%d bits=%d maxLen=%d stride=%d targets=%d seed=%d)",
			c, len(pop), bitLen, cfg.MaxLen, cfg.PointerStride, len(targets), seed)
		assertMatchesReference(t, name, cfg, pop, targets, seed)
	}

	// SGTIN-96 shelves: runs of serials per product share 58 bits.
	for c := 0; c < 10; c++ {
		var pop []epc.EPC
		products := 1 + uint64(rng.Intn(4))
		for prod := uint64(0); prod < products; prod++ {
			p, err := epc.SGTINPopulation(703710, 100000+prod, 5, uint64(rng.Intn(1000)), 20+rng.Intn(60))
			if err != nil {
				t.Fatal(err)
			}
			pop = append(pop, p...)
		}
		targets := pickTargets(rng, pop, 1+rng.Intn(10))
		assertMatchesReference(t, fmt.Sprintf("sgtin %d", c), DefaultConfig(), pop, targets, int64(c))
	}

	// Every scenario pack's EPC population, as its scene is built.
	for _, p := range scenario.Packs() {
		scn, err := p.BuildScene(rand.New(rand.NewSource(5)), 300)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		pop := make([]epc.EPC, len(scn.Tags))
		for i, tag := range scn.Tags {
			pop[i] = tag.EPC
		}
		for c := 0; c < 3; c++ {
			targets := pickTargets(rng, pop, 1+rng.Intn(min(len(pop), 15)))
			assertMatchesReference(t, fmt.Sprintf("%s %d", p.Name, c), DefaultConfig(), pop, targets, int64(c))
		}
	}

	// Errors agree on the empty target list too.
	pop, _ := epc.RandomPopulation(rng, 8, 96)
	assertMatchesReference(t, "no targets", DefaultConfig(), pop, nil, 0)
}
