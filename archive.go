package szx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/telemetry"
)

// Archive support: a simulation snapshot is usually a set of named fields
// (the paper's applications have 2-77 of them, Table 2). An Archive bundles
// many SZx-compressed fields with a table of contents so a reader can
// decompress one field — or one value range of one field — without touching
// the rest. This is the on-disk shape the Fig. 16 dump/load workflow
// produces per rank.
//
// Wire format:
//
//	"SZXA" u8(version) u32(nfields)
//	per field: u16 nameLen | name | u8 ndims | u64 dims... | u64 payloadLen
//	payloads, concatenated in TOC order
const (
	archiveMagic   = "SZXA"
	archiveVersion = 1
	// archiveMaxDims is the most dims a field may have; the writer and the
	// reader both enforce it.
	archiveMaxDims = 8
)

// Archive errors.
var (
	ErrArchive       = errors.New("szx: malformed archive")
	ErrFieldExists   = errors.New("szx: field already in archive")
	ErrFieldNotFound = errors.New("szx: field not in archive")
	ErrFieldDims     = errors.New("szx: field dims must be 1 to 8 positive values whose product is the data length")
)

// ArchiveWriter accumulates compressed fields. Compression stages through
// one reused scratch buffer (each stored payload is then an exact-size
// copy), so adding many fields allocates no growth slack per field.
// Options.Workers spreads each field's blocks over the parallel engine.
type ArchiveWriter struct {
	opt     Options
	names   map[string]bool
	fields  []archiveField
	scratch []byte // compressed staging, reused across fields
}

type archiveField struct {
	name    string
	dims    []int
	payload []byte
}

// NewArchiveWriter returns a writer that compresses every added field with
// the given options. With opt.TargetRatio set, each field resolves its own
// error bound against its own data — a per-field ratio budget — and the
// resolved bound is reported back through FieldInfo.ErrBound on read.
func NewArchiveWriter(opt Options) *ArchiveWriter {
	return &ArchiveWriter{opt: opt, names: make(map[string]bool)}
}

// AddField compresses and stores one named float32 field. dims (one to
// eight of them) must multiply to len(data); names must be unique and
// non-empty.
func (aw *ArchiveWriter) AddField(name string, dims []int, data []float32) error {
	return AddArchiveField(aw, name, dims, data)
}

// AddFieldFloat64 compresses and stores one named float64 field. The
// element type travels in the field's stream header; readers use
// ReadFloat64 for such fields.
func (aw *ArchiveWriter) AddFieldFloat64(name string, dims []int, data []float64) error {
	return AddArchiveField(aw, name, dims, data)
}

// AddArchiveField compresses and stores one named field of either element
// type. It is a free function because Go methods cannot take type
// parameters; AddField and AddFieldFloat64 are its pinned instantiations.
func AddArchiveField[T Float](aw *ArchiveWriter, name string, dims []int, data []T) error {
	return aw.add(name, dims, len(data), func(dst []byte) ([]byte, error) {
		return CompressInto[T](dst, data, aw.opt)
	})
}

func (aw *ArchiveWriter) add(name string, dims []int, n int, compress func(dst []byte) ([]byte, error)) error {
	if name == "" || len(name) > math.MaxUint16 {
		return fmt.Errorf("%w: bad field name", ErrArchive)
	}
	if aw.names[name] {
		return ErrFieldExists
	}
	if p, ok := dimsProduct(dims); !ok || len(dims) == 0 || len(dims) > archiveMaxDims || p != n {
		return ErrFieldDims
	}
	// Compress into the shared scratch, then store an exact-size copy so
	// payloads carry no append growth slack.
	comp, err := compress(aw.scratch[:0])
	if err != nil {
		return err
	}
	aw.scratch = comp
	aw.names[name] = true
	aw.fields = append(aw.fields, archiveField{
		name:    name,
		dims:    append([]int(nil), dims...),
		payload: append(make([]byte, 0, len(comp)), comp...),
	})
	if telemetry.Enabled() {
		telemetry.ArchiveFieldsWritten.Inc()
	}
	return nil
}

// NumFields returns how many fields have been added.
func (aw *ArchiveWriter) NumFields() int { return len(aw.fields) }

// Bytes serializes the archive.
func (aw *ArchiveWriter) Bytes() []byte {
	size := 9
	for _, f := range aw.fields {
		size += 2 + len(f.name) + 1 + 8*len(f.dims) + 8 + len(f.payload)
	}
	out := make([]byte, 0, size)
	out = append(out, archiveMagic...)
	out = append(out, archiveVersion)
	out = aw.appendTOC(out)
	for _, f := range aw.fields {
		out = append(out, f.payload...)
	}
	return out
}

// appendTOC appends the field count and per-field TOC entries.
func (aw *ArchiveWriter) appendTOC(out []byte) []byte {
	var b8 [8]byte
	binary.LittleEndian.PutUint32(b8[:4], uint32(len(aw.fields)))
	out = append(out, b8[:4]...)
	for _, f := range aw.fields {
		binary.LittleEndian.PutUint16(b8[:2], uint16(len(f.name)))
		out = append(out, b8[:2]...)
		out = append(out, f.name...)
		out = append(out, byte(len(f.dims)))
		for _, d := range f.dims {
			binary.LittleEndian.PutUint64(b8[:], uint64(d))
			out = append(out, b8[:]...)
		}
		binary.LittleEndian.PutUint64(b8[:], uint64(len(f.payload)))
		out = append(out, b8[:]...)
	}
	return out
}

// WriteTo streams the serialized archive to w — the header and TOC in one
// buffered write, then each payload directly — without materializing the
// whole blob the way Bytes does. It produces bytes identical to Bytes.
func (aw *ArchiveWriter) WriteTo(w io.Writer) (int64, error) {
	hdr := make([]byte, 0, 256)
	hdr = append(hdr, archiveMagic...)
	hdr = append(hdr, archiveVersion)
	hdr = aw.appendTOC(hdr)
	var total int64
	n, err := w.Write(hdr)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, f := range aw.fields {
		n, err := w.Write(f.payload)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// FieldInfo describes one archived field.
type FieldInfo struct {
	Name           string
	Dims           []int
	NumValues      int
	CompressedSize int
	ErrBound       float64
	// Type is the element type carried in the field's stream header.
	Type DType
}

// Archive reads a serialized archive without decompressing anything until
// a field is requested.
type Archive struct {
	infos    []FieldInfo
	payloads map[string][]byte
}

// OpenArchive parses the table of contents of an archive.
func OpenArchive(data []byte) (*Archive, error) {
	if len(data) < 9 || string(data[:4]) != archiveMagic || data[4] != archiveVersion {
		return nil, ErrArchive
	}
	// A TOC entry takes at least 19 bytes (an empty name, one dim), so a
	// count the data cannot hold is rejected before the TOC is sized by it.
	n := int(binary.LittleEndian.Uint32(data[5:9]))
	if n < 0 || n > 1<<20 || n > (len(data)-9)/19 {
		return nil, ErrArchive
	}
	pos := 9
	type entry struct {
		info FieldInfo
		plen int
	}
	entries := make([]entry, 0, n)
	for i := 0; i < n; i++ {
		if pos+2 > len(data) {
			return nil, ErrArchive
		}
		nameLen := int(binary.LittleEndian.Uint16(data[pos:]))
		pos += 2
		if pos+nameLen+1 > len(data) {
			return nil, ErrArchive
		}
		name := string(data[pos : pos+nameLen])
		pos += nameLen
		ndims := int(data[pos])
		pos++
		if ndims < 1 || ndims > archiveMaxDims || pos+8*ndims+8 > len(data) {
			return nil, ErrArchive
		}
		dims := make([]int, ndims)
		for d := range dims {
			dims[d] = int(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
			if dims[d] < 1 || dims[d] > 1<<40 {
				return nil, ErrArchive
			}
		}
		nv, ok := dimsProduct(dims)
		if !ok {
			return nil, ErrArchive
		}
		plen := int(binary.LittleEndian.Uint64(data[pos:]))
		pos += 8
		if plen < 0 {
			return nil, ErrArchive
		}
		entries = append(entries, entry{
			info: FieldInfo{Name: name, Dims: dims, NumValues: nv, CompressedSize: plen},
			plen: plen,
		})
	}
	a := &Archive{payloads: make(map[string][]byte, n)}
	for _, e := range entries {
		if e.plen > len(data)-pos {
			return nil, ErrArchive
		}
		payload := data[pos : pos+e.plen]
		pos += e.plen
		h, err := Info(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: field %q: %v", ErrArchive, e.info.Name, err)
		}
		if h.N != e.info.NumValues {
			return nil, fmt.Errorf("%w: field %q: dims describe %d values, payload holds %d",
				ErrArchive, e.info.Name, e.info.NumValues, h.N)
		}
		e.info.ErrBound = h.ErrBound
		e.info.Type = h.Type
		if _, dup := a.payloads[e.info.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate field %q", ErrArchive, e.info.Name)
		}
		a.payloads[e.info.Name] = payload
		a.infos = append(a.infos, e.info)
	}
	return a, nil
}

// dimsProduct returns the number of values dims describe, and false when
// a dim is below 1 or the product overflows an int.
func dimsProduct(dims []int) (int, bool) {
	p := 1
	for _, d := range dims {
		if d < 1 || p > math.MaxInt/d {
			return 0, false
		}
		p *= d
	}
	return p, true
}

// Fields lists the archived fields in name order.
func (a *Archive) Fields() []FieldInfo {
	out := append([]FieldInfo(nil), a.infos...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Read decompresses one field by name.
func (a *Archive) Read(name string) ([]float32, []int, error) {
	return ReadArchiveField[float32](a, name)
}

// ReadFloat64 decompresses one float64 field by name.
func (a *Archive) ReadFloat64(name string) ([]float64, []int, error) {
	return ReadArchiveField[float64](a, name)
}

// ReadArchiveField decompresses one field by name at either element type
// (ErrWrongType if T does not match the field's stream header). It is a
// free function because Go methods cannot take type parameters; Read and
// ReadFloat64 are its pinned instantiations.
func ReadArchiveField[T Float](a *Archive, name string) ([]T, []int, error) {
	p, ok := a.payloads[name]
	if !ok {
		return nil, nil, ErrFieldNotFound
	}
	vals, err := DecompressInto[T](nil, p)
	if err != nil {
		return nil, nil, err
	}
	if telemetry.Enabled() {
		telemetry.ArchiveFieldsRead.Inc()
	}
	for _, inf := range a.infos {
		if inf.Name == name {
			return vals, inf.Dims, nil
		}
	}
	return vals, nil, nil
}

// ReadRange decompresses values [lo, hi) of one float32 field, touching
// only the blocks that overlap the range.
func (a *Archive) ReadRange(name string, lo, hi int) ([]float32, error) {
	p, ok := a.payloads[name]
	if !ok {
		return nil, ErrFieldNotFound
	}
	return DecompressRange(p, lo, hi)
}
