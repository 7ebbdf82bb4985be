package fleet

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/epc"
)

func mustEPC(t *testing.T, s string) epc.EPC {
	t.Helper()
	code, err := epc.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func TestRegistryMergeAndHandoff(t *testing.T) {
	reg := NewRegistry()
	code := mustEPC(t, "30f4ab12cd0045e100000001")
	t0 := time.Unix(1000, 0)

	if _, moved := reg.Observe("r0", core.Reading{EPC: code, Antenna: 1, Time: time.Second}, t0); moved {
		t.Fatal("first observation must not be a handoff")
	}
	if _, moved := reg.Observe("r0", core.Reading{EPC: code, Antenna: 2, Time: 2 * time.Second}, t0.Add(time.Second)); moved {
		t.Fatal("same-reader observation must not be a handoff")
	}
	ho, moved := reg.Observe("r1", core.Reading{EPC: code, Antenna: 1, Time: 3 * time.Second}, t0.Add(2*time.Second))
	if !moved || ho.From != "r0" || ho.To != "r1" {
		t.Fatalf("handoff: %+v moved=%v", ho, moved)
	}

	st, ok := reg.Get(code)
	if !ok {
		t.Fatal("tag missing")
	}
	if st.Reader != "r1" || st.Reads != 3 || st.Handoffs != 1 {
		t.Fatalf("state: %+v", st)
	}
	if st.Readers.Get("r0") != 2 || st.Readers.Get("r1") != 1 {
		t.Fatalf("per-reader counts: %+v", st.Readers)
	}
	if len(st.Transitions) != 1 || st.Transitions[0].From != "r0" {
		t.Fatalf("transitions: %+v", st.Transitions)
	}
	if obs, handoffs := reg.Stats(); obs != 3 || handoffs != 1 {
		t.Fatalf("stats: obs=%d handoffs=%d", obs, handoffs)
	}
}

func TestRegistryAssessmentOnlyFromOwner(t *testing.T) {
	reg := NewRegistry()
	code := mustEPC(t, "30f4ab12cd0045e100000002")
	now := time.Unix(2000, 0)
	reg.Observe("r0", core.Reading{EPC: code}, now)
	reg.Observe("r1", core.Reading{EPC: code}, now.Add(time.Second))

	reg.UpdateAssessment("r1", code, true, 30)
	reg.UpdateAssessment("r0", code, false, 1) // stale reader: ignored
	st, _ := reg.Get(code)
	if !st.Mobile || st.IRR != 30 {
		t.Fatalf("stale reader overwrote owner verdict: %+v", st)
	}
}

func TestRegistryTransitionTrailBounded(t *testing.T) {
	reg := NewRegistry()
	code := mustEPC(t, "30f4ab12cd0045e100000003")
	now := time.Unix(3000, 0)
	for i := 0; i < 3*maxTransitions; i++ {
		reg.Observe(fmt.Sprintf("r%d", i%2), core.Reading{EPC: code}, now.Add(time.Duration(i)*time.Second))
	}
	st, _ := reg.Get(code)
	if len(st.Transitions) != maxTransitions {
		t.Fatalf("trail length %d, want %d", len(st.Transitions), maxTransitions)
	}
	if st.Handoffs != uint64(3*maxTransitions-1) {
		t.Fatalf("handoff count %d", st.Handoffs)
	}
}

func TestRegistrySnapshotSortedAndPrune(t *testing.T) {
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(7))
	codes, err := epc.RandomPopulation(rng, 50, 96)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(4000, 0)
	for i, c := range codes {
		reg.Observe("r0", core.Reading{EPC: c}, base.Add(time.Duration(i)*time.Minute))
	}
	snap := reg.Snapshot()
	if len(snap) != 50 {
		t.Fatalf("snapshot %d tags, want 50", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].EPC >= snap[i].EPC {
			t.Fatal("snapshot not sorted by EPC")
		}
	}
	if n := reg.Prune(base.Add(25 * time.Minute)); n != 25 {
		t.Fatalf("pruned %d, want 25", n)
	}
	if reg.Len() != 25 {
		t.Fatalf("len %d after prune, want 25", reg.Len())
	}
}

// TestRegistryConcurrent exercises the sharded locking under the race
// detector: many writers and readers over a shared population.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(11))
	codes, err := epc.RandomPopulation(rng, 64, 96)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("r%d", w)
			for i := 0; i < 500; i++ {
				c := codes[i%len(codes)]
				reg.Observe(name, core.Reading{EPC: c, Time: time.Duration(i)}, time.Unix(int64(i), 0))
				reg.UpdateAssessment(name, c, i%2 == 0, float64(i))
			}
		}(w)
	}
	stopRead := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stopRead:
				return
			default:
				reg.Snapshot()
				reg.Len()
			}
		}
	}()
	wg.Wait()
	close(stopRead)
	rg.Wait()
	if obs, _ := reg.Stats(); obs != 4*500 {
		t.Fatalf("observations %d, want %d", obs, 4*500)
	}
	if reg.Len() != 64 {
		t.Fatalf("len %d, want 64", reg.Len())
	}
}
