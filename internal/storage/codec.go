package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/page"
)

// Page format v2 (little-endian), used by FileStore. Every page occupies
// exactly PageSize bytes on disk: an 80-byte header, n fixed-width
// entries, and a zero tail.
//
//	offset  size  field
//	0       4     CRC-32C (Castagnoli) of bytes [4, 80+48·n)
//	4       4     magic "SPGR"
//	8       1     format version (2)
//	9       1     page type
//	10      2     level
//	12      4     number of entries n
//	16      8     page ID
//	24      32    Meta.MBR: MinX MinY MaxX MaxY (float64 each)
//	56      8     Meta.EntryAreaSum   (criterion EA)
//	64      8     Meta.EntryMarginSum (criterion EM)
//	72      8     Meta.EntryOverlap   (criterion EO)
//	80      48·n  entries: MinX MinY MaxX MaxY (float64 each), Child (8), ObjID (8)
//
// The checksum covers the whole used prefix except its own field — every
// header byte from the magic on and all n entries. The zero tail is
// neither read nor covered, so a sparse page costs a short checksum.
//
// The page's derived Meta is stored, not recomputed on decode: the paper
// says of the entry overlap (§2.3) that "storing this information on the
// page may be worthwhile", and on the miss path it is — the O(n²) pass
// over a 45-entry page costs ≈ 1 000 rectangle intersections, several
// times the pread it would follow. The codec stores the Meta it is
// given: keeping it fresh is the writer's contract (rtree refreshes the
// O(n) fields on every write and the overlap in FinalizeStats), exactly
// as on MemStore, which keeps the page object itself. Only
// Meta.NumEntries is not taken from the header: it is the decoded n.
// On a little-endian host the entry region is the memory of a
// []page.Entry (TestEntryLayout pins it) and moves in one copy; the
// per-field loops serve a big-endian host, and the tests as an oracle.
const (
	// PageSize is the on-disk size of one page in bytes. 4 KiB holds the
	// paper's maximum fan-out (51 directory entries = 80+51·48 = 2528 B)
	// with room to spare.
	PageSize = 4096

	headerSize = 80
	entrySize  = 48

	// MaxEntries is the largest entry count a PageSize page can hold.
	MaxEntries = (PageSize - headerSize) / entrySize

	pageMagic   = 'S' | 'P'<<8 | 'G'<<16 | 'R'<<24
	pageVersion = 2
)

// ErrCorruptPage is returned (wrapped) when page bytes fail validation:
// wrong magic or format version, entry count out of range, checksum
// mismatch, or a slot holding another page's ID.
var ErrCorruptPage = errors.New("storage: corrupt page")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// PageBytes returns the encoded size of p in bytes — the header plus its
// entries, i.e. the payload a FileStore write would occupy before padding
// to PageSize. Trace spans report this instead of the padded size so that
// sparse and dense pages are distinguishable in the I/O profile.
func PageBytes(p *page.Page) int {
	if p == nil {
		return 0
	}
	return headerSize + entrySize*len(p.Entries)
}

// EncodePage serializes p, Meta included, into buf, which must be at
// least PageSize bytes.
func EncodePage(p *page.Page, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("storage: encode buffer too small: %d < %d", len(buf), PageSize)
	}
	// One read of the slice header, so that count, copy and checksum
	// range agree even on a page its owner is (wrongly) still changing:
	// the bytes may be torn, but they decode.
	entries := p.Entries
	if len(entries) > MaxEntries {
		return fmt.Errorf("storage: page %d has %d entries, max %d", p.ID, len(entries), MaxEntries)
	}
	if p.Level < 0 || p.Level > math.MaxUint16 {
		return fmt.Errorf("storage: page %d has level %d, max %d", p.ID, p.Level, math.MaxUint16)
	}
	buf = buf[:PageSize]
	le := binary.LittleEndian
	le.PutUint32(buf[4:], pageMagic)
	buf[8] = pageVersion
	buf[9] = byte(p.Type)
	le.PutUint16(buf[10:], uint16(p.Level))
	le.PutUint32(buf[12:], uint32(len(entries)))
	le.PutUint64(buf[16:], uint64(p.ID))
	putRect(buf[24:], p.MBR)
	le.PutUint64(buf[56:], math.Float64bits(p.EntryAreaSum))
	le.PutUint64(buf[64:], math.Float64bits(p.EntryMarginSum))
	le.PutUint64(buf[72:], math.Float64bits(p.EntryOverlap))
	off := headerSize + len(entries)*entrySize
	if littleEndianHost {
		copy(buf[headerSize:off], entryBytes(entries))
	} else {
		putEntries(buf[headerSize:off], entries)
	}
	le.PutUint32(buf[0:], crc32.Checksum(buf[4:off], castagnoli))
	clear(buf[off:])
	return nil
}

// DecodePage validates buf (at least PageSize bytes) as a v2 page and
// copies it out: one exact-size entry slice, Meta as stored. Validation
// failures wrap ErrCorruptPage.
func DecodePage(buf []byte) (*page.Page, error) {
	p := &page.Page{}
	if err := decode(p, buf); err != nil {
		return nil, err
	}
	return p, nil
}

// decodeInto decodes buf into p, a page of recycled memory or nil, and
// returns the page holding one reference. It claims p first; a nil p,
// or one somebody still references, is left alone for a new leased page.
// A rejected buffer leaves the page it claimed unclaimed and unreferenced.
func decodeInto(p *page.Page, buf []byte) (*page.Page, error) {
	if p == nil || !p.Claim() {
		p = page.Leased()
	}
	if err := decode(p, buf); err != nil {
		p.Unclaim(0)
		return nil, err
	}
	p.Unclaim(1)
	return p, nil
}

// decode is DecodePage into p's memory: its Meta, and its entry slice
// when that is long enough. It writes no other field of p, so a reader
// that reaches p's lease concurrently races with nothing.
func decode(p *page.Page, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("storage: decode buffer too small: %d < %d", len(buf), PageSize)
	}
	buf = buf[:PageSize]
	le := binary.LittleEndian
	if m, v := le.Uint32(buf[4:]), buf[8]; m != pageMagic || v != pageVersion {
		return fmt.Errorf("%w: magic %#x version %d, want %#x version %d", ErrCorruptPage, m, v, uint32(pageMagic), pageVersion)
	}
	n := int(le.Uint32(buf[12:]))
	if n > MaxEntries {
		return fmt.Errorf("%w: %d entries, max %d", ErrCorruptPage, n, MaxEntries)
	}
	used := headerSize + n*entrySize
	if want, got := le.Uint32(buf[0:]), crc32.Checksum(buf[4:used], castagnoli); got != want {
		return fmt.Errorf("%w: checksum %#08x, header says %#08x", ErrCorruptPage, got, want)
	}
	p.Meta = page.Meta{
		ID:             page.ID(le.Uint64(buf[16:])),
		Type:           page.Type(buf[9]),
		Level:          int(le.Uint16(buf[10:])),
		MBR:            getRect(buf[24:]),
		NumEntries:     n,
		EntryAreaSum:   math.Float64frombits(le.Uint64(buf[56:])),
		EntryMarginSum: math.Float64frombits(le.Uint64(buf[64:])),
		EntryOverlap:   math.Float64frombits(le.Uint64(buf[72:])),
	}
	if cap(p.Entries) < n {
		p.Entries = make([]page.Entry, n)
	}
	p.Entries = p.Entries[:n]
	if littleEndianHost {
		copy(entryBytes(p.Entries), buf[headerSize:used])
	} else {
		getEntries(p.Entries, buf[headerSize:used])
	}
	return nil
}

// entryBytes is the memory of es as bytes: an Entry holds no pointer.
func entryBytes(es []page.Entry) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(es))), len(es)*entrySize)
}

// putEntries and getEntries are the per-field codec of the entry region b.
func putEntries(b []byte, es []page.Entry) {
	for i, e := range es {
		b := b[i*entrySize:]
		putRect(b, e.MBR)
		binary.LittleEndian.PutUint64(b[32:], uint64(e.Child))
		binary.LittleEndian.PutUint64(b[40:], e.ObjID)
	}
}

func getEntries(es []page.Entry, b []byte) {
	for i := range es {
		b := b[i*entrySize:]
		es[i] = page.Entry{MBR: getRect(b), Child: page.ID(binary.LittleEndian.Uint64(b[32:])), ObjID: binary.LittleEndian.Uint64(b[40:])}
	}
}

func putRect(b []byte, r geom.Rect) {
	_ = b[31]
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(r.MinX))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.MinY))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.MaxX))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(r.MaxY))
}

func getRect(b []byte) geom.Rect {
	_ = b[31]
	return geom.Rect{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
	}
}
