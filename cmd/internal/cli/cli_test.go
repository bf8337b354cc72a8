package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs/shadow"
	"repro/internal/obs/tracing"
	"repro/internal/page"
	"repro/internal/storage"
)

func TestSplit(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"U-P", []string{"U-P"}},
		{"U-P,INT-W-33", []string{"U-P", "INT-W-33"}},
		{" LRU , SLRU 50% ,,ASB,", []string{"LRU", "SLRU 50%", "ASB"}},
	} {
		if got := Split(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Split(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestFloats(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64
		bad  string // the entry the error must quote; "" = no error
	}{
		{"", nil, ""},
		{" , ", nil, ""},
		{"0.006,0.047", []float64{0.006, 0.047}, ""},
		{" 0.5 ,1, 2,4 ,", []float64{0.5, 1, 2, 4}, ""},
		{"1e-3", []float64{0.001}, ""},
		{"0.5,x,2", nil, "x"},
		{"0.5,,1.2.3", nil, "1.2.3"},
		{"1,0", nil, "0"},
		{"-0.5,1", nil, "-0.5"},
		{"NaN", nil, "NaN"},
		{"1,+Inf", nil, "+Inf"},
	} {
		got, err := Floats("shadow-ladder", tc.in)
		if tc.bad == "" {
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Floats(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("Floats(%q) = %v, want an error", tc.in, got)
			continue
		}
		for _, part := range []string{"-shadow-ladder", `"` + tc.bad + `"`} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("Floats(%q) error %q does not mention %s", tc.in, err, part)
			}
		}
	}
}

func TestFormatFloatsRoundTrips(t *testing.T) {
	for _, vs := range [][]float64{nil, {1}, shadow.DefaultLadder(), {0.003, 0.006, 0.012, 0.024, 0.047}, {1e-9, 12345678.5}} {
		s := formatFloats(vs)
		back, err := Floats("x", s)
		if err != nil || !reflect.DeepEqual(back, vs) {
			t.Errorf("Floats(formatFloats(%v) = %q) = %v, %v", vs, s, back, err)
		}
	}
	if got := formatFloats(shadow.DefaultLadder()); got != "0.5,1,2,4" {
		t.Errorf("default ladder renders as %q", got)
	}
}

// TestShadowGroup: the group's three flags parse into a bank of the
// expected ghost caches, a bad ladder or sample rate is rejected by
// Parse, and an empty -shadow disables the group.
func TestShadowGroup(t *testing.T) {
	parse := func(args ...string) (*Shadow, error) {
		var s Shadow
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(new(bytes.Buffer))
		s.Register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return &s, s.Parse()
	}
	s, err := parse()
	if err != nil || !s.Enabled() {
		t.Fatalf("defaults: enabled %v, err %v", s.Enabled(), err)
	}
	bank, err := s.Bank("SLRU 50%", 100)
	if err != nil {
		t.Fatal(err)
	}
	if bank.Len() != 6 { // LRU, ASB at 100; SLRU 50% at 50, 100 (once), 200, 400
		t.Errorf("default bank has %d ghost caches, want 6", bank.Len())
	}
	if s, err := parse("-shadow", " , "); err != nil || s.Enabled() {
		t.Errorf("blank -shadow: enabled %v, err %v", s.Enabled(), err)
	}
	for _, n := range []string{"0", "-3"} {
		if _, err := parse("-shadow-sample", n); err == nil || !strings.Contains(err.Error(), "-shadow-sample") {
			t.Errorf("-shadow-sample %s: err = %v, want one naming the flag", n, err)
		}
	}
	for _, ladder := range []string{"1,zwei", "1,0", "-2"} {
		if _, err := parse("-shadow-ladder", ladder); err == nil || !strings.Contains(err.Error(), "-shadow-ladder") {
			t.Errorf("-shadow-ladder %s: err = %v, want one naming the flag", ladder, err)
		}
	}
}

// TestPoolHelpers builds each layout through the one construction path
// and checks what the helpers resolve on it: the shard count after
// clamping, an idempotent Close, a tracer that records on every layout,
// and contention counts exactly where the layout has a latch.
func TestPoolHelpers(t *testing.T) {
	store := storage.NewMemStore()
	var ids []page.ID
	for i := 0; i < 16; i++ {
		p := page.New(store.Allocate(), page.TypeData, 0, 1)
		p.Append(page.Entry{MBR: geom.NewRect(0, 0, 1, 1), ObjID: uint64(i)})
		p.Recompute()
		if err := store.Write(p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	for _, tc := range []struct {
		spec   string
		shards int
		latch  bool
	}{
		{"bare", 1, false},
		{"locked", 1, true},
		{"sharded,shards=4", 4, true},
		{"sharded,shards=64", 4, true}, // 8 frames: clamped to two frames a shard
		{"async,shards=2", 2, true},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			comp, err := buffer.ParseComposition(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := comp.Build(store, func(int) buffer.Policy { return core.NewLRU() }, 8)
			if err != nil {
				t.Fatal(err)
			}
			if got := pool.Shards(); got != tc.shards {
				t.Errorf("Shards = %d, want %d", got, tc.shards)
			}
			tracer := tracing.NewTracer(1, comp.ShardCount(), 64)
			cont := tracing.NewContention(tc.shards)
			Trace(pool, tracer, cont)
			for _, id := range ids {
				if _, err := pool.Get(id, buffer.AccessContext{QueryID: 1}); err != nil {
					t.Fatal(err)
				}
			}
			if n := len(tracer.Traces(0)); n != len(ids) {
				t.Errorf("tracer retained %d traces, want %d", n, len(ids))
			}
			var acquired uint64
			for sh := 0; sh < cont.Shards(); sh++ {
				acquired += cont.Acquisitions(sh)
			}
			if (acquired > 0) != tc.latch {
				t.Errorf("contention profiler counted %d acquisitions, latch = %v", acquired, tc.latch)
			}
			Trace(pool, nil, nil) // nil leaves what is attached alone
			for i := 0; i < 2; i++ {
				if err := Close(pool); err != nil {
					t.Errorf("Close #%d: %v", i+1, err)
				}
			}
		})
	}
}

func TestDBGroup(t *testing.T) {
	var d DB
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	d.Register(fs, "db usage", "objects usage")
	if u := fs.Lookup("db").Usage + "/" + fs.Lookup("objects").Usage; u != "db usage/objects usage" {
		t.Errorf("usage strings = %q", u)
	}
	if d.Num != 1 || d.Objects != 0 || d.Seed != 1 {
		t.Errorf("defaults = %+v", d)
	}
	if err := fs.Parse([]string{"-db", "2", "-objects", "3000", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	if o := d.Options(); d.Num != 2 || o.Objects != 3000 || o.Seed != 7 {
		t.Errorf("parsed = %+v, options %+v", d, o)
	}
	if _, err := (&DB{Num: 3}).Get(); err == nil {
		t.Error("database 3 should not exist")
	}
	if err := d.Parse(); err != nil {
		t.Errorf("Parse(%+v): %v", d, err)
	}
	if err := (&DB{Num: 1, Objects: -1}).Parse(); err == nil || !strings.Contains(err.Error(), "-objects") {
		t.Errorf("-objects -1: err = %v, want one naming the flag", err)
	}
}

func TestWriteFile(t *testing.T) {
	path := t.TempDir() + "/out.csv"
	err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "ref,candidate\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "ref,candidate\n" {
		t.Errorf("file = %q, %v", b, err)
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("fill error came back as %v", err)
	}
	if err := WriteFile(t.TempDir()+"/no/such/dir/f", func(io.Writer) error { return nil }); err == nil {
		t.Error("creating a file in a missing directory should fail")
	}
}
