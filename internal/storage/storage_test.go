package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/page"
)

// makePage builds a recomputed test page with n entries.
func makePage(id page.ID, typ page.Type, level, n int, rng *rand.Rand) *page.Page {
	p := page.New(id, typ, level, n)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 1000
		y := rng.Float64() * 1000
		p.Append(page.Entry{
			MBR:   geom.NewRect(x, y, x+rng.Float64()*10, y+rng.Float64()*10),
			Child: page.ID(rng.Uint64()%1000 + 1),
			ObjID: rng.Uint64(),
		})
	}
	p.Recompute()
	return p
}

// storeUnderTest runs the shared Store contract tests.
func storeUnderTest(t *testing.T, s Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))

	// Allocate IDs are dense from 1.
	id1 := s.Allocate()
	id2 := s.Allocate()
	if id1 != 1 || id2 != 2 {
		t.Fatalf("Allocate = %d, %d; want 1, 2", id1, id2)
	}

	p1 := makePage(id1, page.TypeDirectory, 2, 5, rng)
	p2 := makePage(id2, page.TypeData, 0, 40, rng)
	if err := s.Write(p1); err != nil {
		t.Fatalf("Write p1: %v", err)
	}
	if err := s.Write(p2); err != nil {
		t.Fatalf("Write p2: %v", err)
	}
	if n := s.NumPages(); n != 2 {
		t.Errorf("NumPages = %d, want 2", n)
	}

	got, err := s.Read(id2)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.ID != id2 || got.Type != page.TypeData || got.Level != 0 {
		t.Errorf("read meta = %+v", got.Meta)
	}
	if len(got.Entries) != 40 {
		t.Fatalf("read %d entries, want 40", len(got.Entries))
	}
	for i, e := range got.Entries {
		if e != p2.Entries[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, e, p2.Entries[i])
		}
	}
	if got.Meta != p2.Meta {
		t.Errorf("meta mismatch: %+v vs %+v", got.Meta, p2.Meta)
	}

	// Stats: 1 read so far.
	if st := s.Stats(); st.Reads != 1 {
		t.Errorf("Reads = %d, want 1", st.Reads)
	}
	// Sequential read accounting: reading 1 then 2 is one sequential read.
	s.ResetStats()
	if _, err := s.Read(id1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(id2); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reads != 2 || st.Sequential != 1 {
		t.Errorf("stats = %+v, want 2 reads, 1 sequential", st)
	}

	// Reading an unknown page fails with ErrPageNotFound.
	if _, err := s.Read(9999); !errors.Is(err, ErrPageNotFound) {
		t.Errorf("read unknown page: err = %v, want ErrPageNotFound", err)
	}
	// Writing an unallocated page fails.
	if err := s.Write(makePage(500, page.TypeData, 0, 1, rng)); err == nil {
		t.Error("write of unallocated page should fail")
	}
	// Writing nil / invalid fails.
	if err := s.Write(nil); err == nil {
		t.Error("write of nil page should fail")
	}

	// Overwrite is allowed and returns the latest version.
	p1b := makePage(id1, page.TypeDirectory, 3, 7, rng)
	if err := s.Write(p1b); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, err = s.Read(id1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level != 3 || len(got.Entries) != 7 {
		t.Errorf("overwritten page: level %d entries %d", got.Level, len(got.Entries))
	}

	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestMemStoreContract(t *testing.T) {
	storeUnderTest(t, NewMemStore())
}

func TestFileStoreContract(t *testing.T) {
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	storeUnderTest(t, fs)
}

func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var want []*page.Page
	for i := 0; i < 10; i++ {
		id := fs.Allocate()
		p := makePage(id, page.TypeData, 0, rng.Intn(MaxEntries), rng)
		if err := fs.Write(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumPages() != 10 {
		t.Fatalf("reopened NumPages = %d, want 10", re.NumPages())
	}
	for _, w := range want {
		got, err := re.Read(w.ID)
		if err != nil {
			t.Fatalf("read %d: %v", w.ID, err)
		}
		if got.Meta != w.Meta {
			t.Errorf("page %d meta mismatch", w.ID)
		}
	}
	// New allocations continue after the persisted pages.
	if id := re.Allocate(); id != 11 {
		t.Errorf("post-reopen Allocate = %d, want 11", id)
	}
}

func TestOpenFileStoreErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenFileStore(filepath.Join(dir, "missing.db")); err == nil {
		t.Error("opening missing file should fail")
	}
	// A file of whole pages whose first page is not format v2.
	rng := rand.New(rand.NewSource(3))
	v1 := filepath.Join(dir, "v1.db")
	if err := os.WriteFile(v1, encodeV1(makePage(1, page.TypeData, 0, 5, rng)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(v1); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("opening a v1 page file: err = %v, want ErrCorruptPage", err)
	}
	// A file that is not whole pages.
	short := filepath.Join(dir, "short.db")
	if err := os.WriteFile(short, make([]byte, PageSize+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(short); err == nil {
		t.Error("opening a file of 1 page + 1 byte should fail")
	}
}

// TestFileStoreTypedErrors: a slot that was allocated but never written
// reads as ErrPageNotFound — inside the file (a hole) and past its end —
// while damaged or misplaced bytes read as ErrCorruptPage; neither
// counts as a read.
func TestFileStoreTypedErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	hole, written, damaged, misplaced, beyond := fs.Allocate(), fs.Allocate(), fs.Allocate(), fs.Allocate(), fs.Allocate()
	for _, id := range []page.ID{written, damaged, misplaced} {
		if err := fs.Write(makePage(id, page.TypeData, 0, 10, rng)); err != nil {
			t.Fatal(err)
		}
	}
	// Damage one entry byte of one page; put a valid page 2 into slot 4.
	raw, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.WriteAt([]byte{0xA5}, int64(damaged-1)*PageSize+headerSize+7); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if _, err := raw.ReadAt(buf, int64(written-1)*PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.WriteAt(buf, int64(misplaced-1)*PageSize); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		id   page.ID
		want error
	}{
		{"hole", hole, ErrPageNotFound},
		{"past the end of the file", beyond, ErrPageNotFound},
		{"never allocated", beyond + 1, ErrPageNotFound},
		{"damaged", damaged, ErrCorruptPage},
		{"another page's bytes", misplaced, ErrCorruptPage},
	} {
		if _, err := fs.Read(c.id); !errors.Is(err, c.want) {
			t.Errorf("read of %s slot: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := fs.Read(written); err != nil {
		t.Errorf("read of the intact page: %v", err)
	}
	if st := fs.Stats(); st.Reads != 1 {
		t.Errorf("Reads = %d, want 1 (failed reads do not count)", st.Reads)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening tolerates the hole in slot 1: it is no page of another format.
	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen with an unwritten first slot: %v", err)
	}
	re.Close()
}

// TestStoresReturnEqualPages: whatever Meta a page is written with —
// fully recomputed, RecomputeFast (no overlap), or never computed —
// FileStore hands back what MemStore does: the writer's Meta and the
// same entries.
func TestStoresReturnEqualPages(t *testing.T) {
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ms := NewMemStore()
	rng := rand.New(rand.NewSource(19))
	full := makePage(1, page.TypeDirectory, 2, 50, rng)
	full.Append(page.Entry{MBR: geom.NewRect(0, 0, 1010, 1010), Child: 77}) // overlaps the other 50
	full.Recompute()
	fast := makePage(2, page.TypeData, 0, 42, rng)
	fast.RecomputeFast()
	fresh := page.New(3, page.TypeData, 0, 42) // as rtree.New writes its root
	for _, p := range []*page.Page{full, fast, fresh} {
		for _, s := range []Store{ms, fs} {
			if id := s.Allocate(); id != p.ID {
				t.Fatalf("Allocate = %d, want %d", id, p.ID)
			}
			if err := s.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		m, err := ms.Read(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Read(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if f.Meta != m.Meta {
			t.Errorf("page %d: FileStore meta %+v, MemStore meta %+v", p.ID, f.Meta, m.Meta)
		}
		if !slices.Equal(f.Entries, m.Entries) {
			t.Errorf("page %d: FileStore and MemStore entries differ", p.ID)
		}
	}
	if fast.EntryOverlap != 0 || full.EntryOverlap == 0 {
		t.Fatalf("test pages: overlap fast %g, full %g", fast.EntryOverlap, full.EntryOverlap)
	}
}

// TestEntryLayout pins what the one-copy entry codec relies on: an
// Entry is the format's 48-byte entry, MinX MinY MaxX MaxY Child ObjID
// at offsets 0, 8, …, 40.
func TestEntryLayout(t *testing.T) {
	var e page.Entry
	if size := unsafe.Sizeof(e); size != entrySize {
		t.Errorf("page.Entry is %d bytes, the format's entry %d", size, entrySize)
	}
	for i, off := range []uintptr{
		unsafe.Offsetof(e.MBR) + unsafe.Offsetof(e.MBR.MinX),
		unsafe.Offsetof(e.MBR) + unsafe.Offsetof(e.MBR.MinY),
		unsafe.Offsetof(e.MBR) + unsafe.Offsetof(e.MBR.MaxX),
		unsafe.Offsetof(e.MBR) + unsafe.Offsetof(e.MBR.MaxY),
		unsafe.Offsetof(e.Child),
		unsafe.Offsetof(e.ObjID),
	} {
		if off != uintptr(8*i) {
			t.Errorf("field %d of page.Entry at offset %d, want %d", i, off, 8*i)
		}
	}
}

// loopImage is the entry region of es as the per-field loop encodes it.
func loopImage(es []page.Entry) []byte {
	b := make([]byte, len(es)*entrySize)
	putEntries(b, es)
	return b
}

// loopDecode is DecodePage with the entries decoded by the per-field loop.
func loopDecode(buf []byte) (*page.Page, error) {
	p, err := DecodePage(buf)
	if err == nil {
		getEntries(p.Entries, buf[headerSize:PageBytes(p)])
	}
	return p, err
}

// oddPage has NaNs with payloads of both signs, −0 and ±Inf in its Meta
// and its entries, which == cannot compare and a float conversion could
// canonicalize.
func oddPage(id page.ID) *page.Page {
	odd := []float64{
		math.Float64frombits(0x7FF8_0000_DEAD_BEEF), // quiet NaN, payload
		math.Float64frombits(0x7FF0_0000_0000_0001), // signaling NaN
		math.Float64frombits(0xFFF8_0000_0000_0042), // negative NaN
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 0, math.MaxFloat64,
	}
	p := page.New(id, page.TypeData, 0, 10)
	p.MBR = geom.Rect{MinX: odd[0], MinY: odd[3], MaxX: odd[4], MaxY: odd[1]}
	p.EntryAreaSum, p.EntryMarginSum, p.EntryOverlap = odd[2], odd[5], odd[3]
	for i := 0; i < 10; i++ {
		p.Entries = append(p.Entries, page.Entry{
			MBR:   geom.Rect{MinX: odd[i%8], MinY: odd[(i+1)%8], MaxX: odd[(i+3)%8], MaxY: odd[(i+6)%8]},
			Child: page.ID(math.MaxUint64 - uint64(i)),
			ObjID: uint64(1) << (i * 6),
		})
	}
	p.NumEntries = len(p.Entries)
	return p
}

// TestCodecRoundTrip: a page decodes to the Meta and entries it was
// encoded from, bit for bit, and both entry paths — the one copy and the
// per-field loop — give the same bytes either way.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	buf := make([]byte, PageSize)
	again := make([]byte, PageSize)
	for trial := 0; trial < 104; trial++ {
		p := makePage(page.ID(trial+1), page.Type(trial%3), trial%5, rng.Intn(MaxEntries+1), rng)
		if trial >= 100 {
			p = oddPage(page.ID(trial + 1))
		} else if trial%2 == 1 {
			// What rtree writes between FinalizeStats passes: no overlap.
			// The codec stores it as given, it does not "heal" it.
			p.RecomputeFast()
		}
		if err := EncodePage(p, buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		used := buf[headerSize:PageBytes(p)]
		if !bytes.Equal(used, loopImage(p.Entries)) {
			t.Fatalf("page %d: EncodePage and the loop encode the entries differently", p.ID)
		}
		for _, decode := range []func([]byte) (*page.Page, error){DecodePage, loopDecode} {
			got, err := decode(buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.NumEntries != len(p.Entries) {
				t.Fatalf("decoded %d entries, want %d", got.NumEntries, len(p.Entries))
			}
			if err := EncodePage(got, again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, buf) {
				t.Fatalf("page %d: decoded page re-encodes to other bytes", p.ID)
			}
			if !bytes.Equal(loopImage(got.Entries), used) {
				t.Fatalf("page %d: decoded entries differ from the encoded ones", p.ID)
			}
		}
	}
}

func TestCodecErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	small := make([]byte, 10)
	if err := EncodePage(makePage(1, page.TypeData, 0, 1, rng), small); err == nil {
		t.Error("encode into small buffer should fail")
	}
	if _, err := DecodePage(small); err == nil {
		t.Error("decode of small buffer should fail")
	}
	// Too many entries.
	p := page.New(1, page.TypeData, 0, MaxEntries+1)
	for i := 0; i <= MaxEntries; i++ {
		p.Append(page.Entry{MBR: geom.NewRect(0, 0, 1, 1)})
	}
	p.Recompute()
	buf := make([]byte, PageSize)
	if err := EncodePage(p, buf); err == nil {
		t.Error("encode of oversized page should fail")
	}
	// Corrupt entry count.
	ok := makePage(1, page.TypeData, 0, 3, rng)
	if err := EncodePage(ok, buf); err != nil {
		t.Fatal(err)
	}
	buf[12] = 0xFF
	buf[13] = 0xFF
	buf[14] = 0xFF
	buf[15] = 0x7F
	if _, err := DecodePage(buf); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("decode of corrupt entry count: err = %v, want ErrCorruptPage", err)
	}
	// A level the 2-byte field cannot hold.
	ok.Level = 1 << 16
	if err := EncodePage(ok, buf); err == nil {
		t.Error("encode of level 65536 should fail")
	}
}

// encodeV1 lays p out in the superseded v1 format (no magic, no
// checksum, no Meta: ID, type, level, count, entries from offset 16).
func encodeV1(p *page.Page) []byte {
	buf := make([]byte, PageSize)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], uint64(p.ID))
	buf[8] = byte(p.Type)
	le.PutUint16(buf[10:], uint16(p.Level))
	le.PutUint32(buf[12:], uint32(len(p.Entries)))
	for i, e := range p.Entries {
		b := buf[16+i*48:]
		le.PutUint64(b[0:], math.Float64bits(e.MBR.MinX))
		le.PutUint64(b[8:], math.Float64bits(e.MBR.MinY))
		le.PutUint64(b[16:], math.Float64bits(e.MBR.MaxX))
		le.PutUint64(b[24:], math.Float64bits(e.MBR.MaxY))
		le.PutUint64(b[32:], uint64(e.Child))
		le.PutUint64(b[40:], e.ObjID)
	}
	return buf
}

// codecCorpus is the seed corpus of FuzzDecodePage: three valid pages
// and two buffers that must not decode.
func codecCorpus(tb testing.TB) (valid, invalid [][]byte) {
	rng := rand.New(rand.NewSource(29))
	dir := makePage(7, page.TypeDirectory, 1, 51, rng)
	data := makePage(8, page.TypeData, 0, 42, rng)
	for _, p := range []*page.Page{dir, data, page.New(9, page.TypeData, 0, 0)} {
		buf := make([]byte, PageSize)
		if err := EncodePage(p, buf); err != nil {
			tb.Fatal(err)
		}
		valid = append(valid, buf)
	}
	return valid, [][]byte{make([]byte, PageSize), encodeV1(data)}
}

// TestDecodeRejectsDamage: no single damaged byte of the used prefix —
// checksum, magic, version, type, level, count, ID, Meta, entries —
// gets past DecodePage, and neither does a zero page, a v1 page or a
// truncated one.
func TestDecodeRejectsDamage(t *testing.T) {
	valid, invalid := codecCorpus(t)
	for _, buf := range invalid {
		if _, err := DecodePage(buf); !errors.Is(err, ErrCorruptPage) {
			t.Errorf("decode of a non-v2 buffer: err = %v, want ErrCorruptPage", err)
		}
	}
	for _, buf := range valid {
		p, err := DecodePage(buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodePage(buf[:PageBytes(p)]); err == nil {
			t.Errorf("decode of a page truncated to its %d used bytes should fail", PageBytes(p))
		}
		for i := 0; i < PageBytes(p); i++ {
			for _, mask := range []byte{0x01, 0x80, 0xFF} {
				buf[i] ^= mask
				if _, err := DecodePage(buf); !errors.Is(err, ErrCorruptPage) {
					t.Fatalf("page %d, byte %d ^ %#02x: err = %v, want ErrCorruptPage", p.ID, i, mask, err)
				}
				buf[i] ^= mask
			}
		}
	}
}

// FuzzDecodePage: arbitrary bytes never panic the decoder, and whatever
// it accepts it accepts exactly — re-encoding the decoded page gives
// back the used prefix byte for byte, and the per-field loop decodes the
// same entries, bit for bit (NaNs included). Decoding into recycled memory — a
// page that last held a full 51-entry directory page, and one whose entry
// slice is too short — gives what a fresh decode does, and a rejected
// input leaves the page unclaimed and unreferenced.
func FuzzDecodePage(f *testing.F) {
	valid, invalid := codecCorpus(f)
	for _, buf := range append(valid, invalid...) {
		f.Add(buf)
	}
	full, short := valid[0], valid[2] // 51 entries; none
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := DecodePage(buf)
		for _, last := range [][]byte{full, short} {
			used, uerr := decodeInto(nil, last)
			if uerr != nil {
				t.Fatal(uerr)
			}
			used.Release()
			got, gerr := decodeInto(used, buf)
			switch {
			case (gerr == nil) != (err == nil):
				t.Fatalf("decoding into used memory: err %v, a fresh decode: err %v", gerr, err)
			case gerr != nil:
				if !used.Claim() {
					t.Fatal("a rejected input left its page claimed or referenced")
				}
			case got != used:
				t.Fatal("the input was not decoded into the unreferenced page it was given")
			case got.Meta != p.Meta || len(got.Entries) != got.NumEntries || !slices.Equal(got.Entries, p.Entries):
				t.Fatalf("decoded into used memory: %+v with %d entries, fresh: %+v", got.Meta, len(got.Entries), p.Meta)
			}
		}
		if err != nil {
			return
		}
		if p.NumEntries != len(p.Entries) || cap(p.Entries) != len(p.Entries) {
			t.Fatalf("decoded %d entries (cap %d), Meta says %d", len(p.Entries), cap(p.Entries), p.NumEntries)
		}
		loop, err := loopDecode(buf)
		if err != nil {
			t.Fatalf("the loop rejects what DecodePage accepts: %v", err)
		}
		if !bytes.Equal(loopImage(loop.Entries), loopImage(p.Entries)) {
			t.Fatal("the copy and the loop decode different entries")
		}
		again := make([]byte, PageSize)
		if err := EncodePage(p, again); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if used := PageBytes(p); !bytes.Equal(again[:used], buf[:used]) {
			t.Fatalf("re-encoded page differs from the %d bytes it was decoded from", used)
		}
	})
}

// TestHeldPageIsNeverClaimed: Recycle takes a page back while its reader
// still holds it, and no later Read decodes into it — even with every
// other page read released and recycled at once — until the reader lets
// go; the reader still finds its page intact.
func TestHeldPageIsNeverClaimed(t *testing.T) {
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 3; i++ {
		if err := fs.Write(makePage(fs.Allocate(), page.TypeData, 0, 20, rng)); err != nil {
			t.Fatal(err)
		}
	}
	held, err := fs.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(held.Entries)
	fs.Recycle(held)
	for i := 0; i < 200; i++ {
		p, err := fs.Read(page.ID(2 + i%2))
		if err != nil {
			t.Fatal(err)
		}
		if p == held {
			t.Fatalf("read %d decoded page %d into the memory of held page 1", i, p.ID)
		}
		p.Release()
		fs.Recycle(p)
	}
	if held.ID != 1 || !slices.Equal(held.Entries, want) {
		t.Errorf("held page now reads as page %d", held.ID)
	}
	held.Release()
}

func TestMaxEntriesFitsPaperFanout(t *testing.T) {
	// The paper's R*-tree uses up to 51 directory entries per page; the
	// on-disk format must hold that.
	if MaxEntries < 51 {
		t.Fatalf("MaxEntries = %d, need at least 51", MaxEntries)
	}
}

func TestMemStoreResetStats(t *testing.T) {
	s := NewMemStore()
	id := s.Allocate()
	rng := rand.New(rand.NewSource(1))
	if err := s.Write(makePage(id, page.TypeData, 0, 1, rng)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(id); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("stats after reset = %+v", st)
	}
}

func TestMemStoreConcurrentAccess(t *testing.T) {
	s := NewMemStore()
	rng := rand.New(rand.NewSource(23))
	const n = 64
	ids := make([]page.ID, n)
	for i := range ids {
		ids[i] = s.Allocate()
		if err := s.Write(makePage(ids[i], page.TypeData, 0, 4, rng)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				if _, err := s.Read(ids[r.Intn(n)]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Reads != 8*500 {
		t.Errorf("Reads = %d, want %d", st.Reads, 8*500)
	}
}
