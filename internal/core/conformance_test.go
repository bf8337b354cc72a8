package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/page"
)

// TestPolicyConformance replays a long random reference string through
// every standard policy and checks the contracts all of them share:
// capacity is respected, hits+misses = requests, a resident page is always
// a hit, physical reads equal misses, and Clear returns to a cold state.
func TestPolicyConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const numPages = 80
	specs := make([]pageSpec, numPages)
	for i := range specs {
		typ := page.TypeData
		level := 0
		switch i % 10 {
		case 0:
			typ, level = page.TypeDirectory, 1+i%3
		case 1:
			typ = page.TypeObject
		}
		specs[i] = pageSpec{typ: typ, level: level, area: float64(rng.Intn(500) + 1)}
	}

	// One shared reference string with mixed locality: hot set + scans.
	var seq []access
	queryID := uint64(0)
	for i := 0; i < 4000; i++ {
		if i%7 == 0 {
			queryID++
		}
		var id page.ID
		switch {
		case i%5 < 3: // hot subset
			id = page.ID(rng.Intn(12) + 1)
		default:
			id = page.ID(rng.Intn(numPages) + 1)
		}
		seq = append(seq, access{id: id, query: queryID})
	}

	for _, capacity := range []int{3, 10, 33} {
		for _, pol := range allStandardPolicies(capacity) {
			t.Run(pol.Name()+"/cap="+itoa(capacity), func(t *testing.T) {
				s := buildStore(t, specs)
				m := mustEngine(t, s, pol, capacity)
				for _, a := range seq {
					wasResident := m.Contains(a.id)
					hitsBefore := m.Stats().Hits
					if _, err := m.Get(a.id, buffer.AccessContext{QueryID: a.query}); err != nil {
						t.Fatalf("get %d: %v", a.id, err)
					}
					if wasResident && m.Stats().Hits != hitsBefore+1 {
						t.Fatalf("resident page %d did not hit", a.id)
					}
					if !wasResident && m.Stats().Hits != hitsBefore {
						t.Fatalf("non-resident page %d counted as hit", a.id)
					}
					if m.Len() > capacity {
						t.Fatalf("capacity exceeded: %d > %d", m.Len(), capacity)
					}
				}
				st := m.Stats()
				if st.Hits+st.Misses != st.Requests {
					t.Errorf("stats inconsistent: %+v", st)
				}
				if got := s.Stats().Reads; got != st.Misses {
					t.Errorf("physical reads %d != misses %d", got, st.Misses)
				}
				if st.Requests != uint64(len(seq)) {
					t.Errorf("requests = %d, want %d", st.Requests, len(seq))
				}

				// After Clear, the first access misses again.
				if err := m.Clear(); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Get(1, buffer.AccessContext{QueryID: 1}); err != nil {
					t.Fatal(err)
				}
				if m.Stats().Misses != 1 {
					t.Error("post-clear access should cold-miss")
				}
			})
		}
	}
}

// TestPoliciesDifferOnSkewedWorkload sanity-checks that the policies are
// not accidentally identical: on a workload with spatial skew, at least
// two of them must produce different miss counts.
func TestPoliciesDifferOnSkewedWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	specs := make([]pageSpec, 40)
	for i := range specs {
		specs[i] = dataPage(float64((i%8)*50 + 1))
	}
	var seq []access
	for i := 0; i < 2000; i++ {
		seq = append(seq, access{id: page.ID(rng.Intn(40) + 1), query: uint64(i / 4)})
	}
	counts := make(map[int][]string)
	for _, pol := range allStandardPolicies(8) {
		s := buildStore(t, specs)
		misses := run(t, s, pol, 8, seq)
		counts[len(misses)] = append(counts[len(misses)], pol.Name())
	}
	if len(counts) < 2 {
		t.Errorf("all policies produced identical miss counts: %v", counts)
	}
}

// itoa avoids importing strconv in several test files.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
