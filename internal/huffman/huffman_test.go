package huffman

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
)

func roundTrip(t *testing.T, syms []uint32) {
	t.Helper()
	blob := Compress(syms)
	got, err := Decompress(blob)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if len(got) != len(syms) {
		t.Fatalf("length %d, want %d", len(got), len(syms))
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("symbol %d: %d != %d", i, got[i], syms[i])
		}
	}
}

func TestEmpty(t *testing.T) {
	roundTrip(t, nil)
}

func TestSingleSymbol(t *testing.T) {
	roundTrip(t, []uint32{7})
	roundTrip(t, []uint32{7, 7, 7, 7, 7})
}

func TestTwoSymbols(t *testing.T) {
	roundTrip(t, []uint32{0, 1, 0, 0, 1, 0})
}

func TestSkewedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	syms := make([]uint32, 10000)
	for i := range syms {
		// Geometric-ish distribution like quantization codes.
		v := uint32(0)
		for rng.Float64() < 0.5 && v < 40 {
			v++
		}
		syms[i] = v
	}
	blob := Compress(syms)
	if len(blob) >= 2*len(syms) {
		t.Errorf("no compression achieved: %d bytes for %d symbols", len(blob), len(syms))
	}
	roundTrip(t, syms)
}

func TestSparseAlphabet(t *testing.T) {
	roundTrip(t, []uint32{0, 1000000, 5, 1000000, 0, 42})
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		syms := make([]uint32, len(raw))
		for i, v := range raw {
			syms[i] = uint32(v)
		}
		blob := Compress(syms)
		got, err := Decompress(blob)
		if err != nil || len(got) != len(syms) {
			return false
		}
		for i := range syms {
			if got[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionBeatsRawOnRealisticCodes(t *testing.T) {
	// Mostly-zero quantization codes: Huffman should get close to the
	// entropy, far below 4 bytes/symbol.
	rng := rand.New(rand.NewSource(32))
	syms := make([]uint32, 100000)
	for i := range syms {
		if rng.Float64() < 0.9 {
			syms[i] = 0
		} else {
			syms[i] = uint32(rng.Intn(16))
		}
	}
	blob := Compress(syms)
	if len(blob) > len(syms) {
		t.Errorf("blob %d bytes for %d mostly-zero symbols", len(blob), len(syms))
	}
}

func TestDecompressCorrupt(t *testing.T) {
	if _, err := Decompress(nil); err == nil {
		t.Error("nil input should error")
	}
	blob := Compress([]uint32{1, 2, 3, 4, 5, 6, 7, 8})
	if _, err := Decompress(blob[:2]); err == nil {
		t.Error("truncated input should error")
	}
}

// walkDecompress is Decompress with every symbol read by the
// bit-by-bit walk: the reference the table decoder must match.
func walkDecompress(data []byte) ([]uint32, error) {
	n, dec, bits, err := parse(data)
	if err != nil {
		return nil, err
	}
	r := bitstream.NewReader(bits)
	out := make([]uint32, n)
	for i := range out {
		s, err := dec.walk(r)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// sameAsWalk checks that Decompress returns the walk's symbols, or the
// walk's error, on data, and returns the symbols and error.
func sameAsWalk(t *testing.T, data []byte) ([]uint32, error) {
	t.Helper()
	got, gotErr := Decompress(data)
	want, wantErr := walkDecompress(data)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("table decode error %v, walk error %v", gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("table decode %v, walk %v", got, want)
	}
	return got, gotErr
}

// rawBlock frames a block as Compress does — count, (delta symbol,
// length) table, code bits — from an arbitrary length table and
// arbitrary code bits, so corrupt tables can be built.
func rawBlock(n int, table []symLen, bits []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(n))
	b = binary.AppendUvarint(b, uint64(len(table)))
	prev := uint32(0)
	for _, e := range table {
		b = binary.AppendUvarint(b, uint64(e.sym-prev))
		b = append(b, e.len)
		prev = e.sym
	}
	return append(b, bits...)
}

// codedBlock encodes syms with the canonical code of table.
func codedBlock(table []symLen, syms []uint32) []byte {
	var dense [denseSyms]code
	sparse := canonicalCodes(table, &dense, nil)
	var w bitstream.Writer
	for _, s := range syms {
		c := sparse[s]
		if s < denseSyms {
			c = dense[s]
		}
		w.WriteBits(c.bits, uint(c.len))
	}
	return rawBlock(len(syms), table, w.Bytes())
}

// longTable is a complete code with one symbol of each length 1..47 and
// two of length maxCodeLen: symbol s has length s+1.
func longTable() []symLen {
	var table []symLen
	for l := uint8(1); l <= maxCodeLen; l++ {
		table = append(table, symLen{sym: uint32(l - 1), len: l})
	}
	return append(table, symLen{sym: maxCodeLen, len: maxCodeLen})
}

func TestTableDecodeLongCodes(t *testing.T) {
	table := longTable()
	rng := rand.New(rand.NewSource(36))
	var syms []uint32
	for s := range table {
		syms = append(syms, uint32(s))
	}
	for i := 0; i < 500; i++ {
		syms = append(syms, uint32(rng.Intn(len(table))))
	}
	rng.Shuffle(len(syms), func(i, j int) { syms[i], syms[j] = syms[j], syms[i] })
	got, err := sameAsWalk(t, codedBlock(table, syms))
	if err != nil || !slices.Equal(got, syms) {
		t.Fatalf("codes up to %d bits: %v (err %v)", maxCodeLen, got, err)
	}
}

// TestDecoderReuse rebuilds one decoder, as the pool hands it from
// stream to stream, for a table of short codes, then for one with codes
// longer than tableBits, then back, and decodes each stream through it:
// the output must be the walk's every time, so no lookup entry, code,
// symbol run or maximum length of the previous table survives init. A
// stream with an invalid code after the long table must fail as the
// walk does, after its own maximum length, not the previous one. The
// same sequence then runs through Decompress and the pool itself.
func TestDecoderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	shortSyms := make([]uint32, 3000)
	for i := range shortSyms {
		shortSyms[i] = uint32(rng.Intn(20))
	}
	table := longTable()
	longSyms := make([]uint32, 0, 600)
	for s := range table {
		longSyms = append(longSyms, uint32(s))
	}
	for len(longSyms) < cap(longSyms) {
		longSyms = append(longSyms, uint32(rng.Intn(len(table))))
	}
	short, long := Compress(shortSyms), codedBlock(table, longSyms)
	invalid := rawBlock(2, []symLen{{sym: 5, len: 1}}, []byte{0xff})
	seq := [][]byte{short, long, short, long, invalid}
	d := new(decoder)
	for i, blob := range seq {
		want, wantErr := walkDecompress(blob)
		n, pd, bits, err := parse(blob)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.init(slices.Clone(pd.list)); err != nil {
			t.Fatal(err)
		}
		s := &Stream{n: int(n), dec: d, bits: bits}
		out := make([]uint32, n)
		_, err = s.decodeRange(out, 0, len(out))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("stream %d through the rebuilt decoder: error %v, walk error %v", i, err, wantErr)
		}
		if err == nil && !slices.Equal(out, want) {
			t.Fatalf("stream %d through the rebuilt decoder differs from the walk", i)
		}
	}
	if _, err := walkDecompress(invalid); err == nil {
		t.Fatal("the invalid-code stream decoded")
	}
	for range 3 {
		for _, blob := range seq {
			sameAsWalk(t, blob)
		}
	}
}

func TestTableDecodeOneSymbolAlphabet(t *testing.T) {
	table := []symLen{{sym: 9, len: 1}}
	got, err := sameAsWalk(t, codedBlock(table, []uint32{9, 9, 9}))
	if err != nil || !slices.Equal(got, []uint32{9, 9, 9}) {
		t.Fatalf("one-symbol alphabet: %v (err %v)", got, err)
	}
	// The lone code is a 0 bit; a 1 bit is no code.
	if _, err := sameAsWalk(t, rawBlock(3, table, []byte{0b010})); err == nil {
		t.Fatal("a 1 bit decoded in a one-symbol alphabet")
	}
}

// TestTableDecodeOversubscribed: length tables whose Kraft sum exceeds
// one decode through the table exactly as through the walk, on random
// code bits.
func TestTableDecodeOversubscribed(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, table := range [][]symLen{
		{{0, 1}, {1, 1}, {2, 1}},
		{{0, 1}, {1, 1}, {2, 2}, {3, 2}},
		{{0, 2}, {1, 1}, {2, 3}, {3, 3}, {4, 3}, {5, 12}, {6, 12}},
		{{3, 11}, {4, 11}, {5, 12}, {6, 1}, {7, 1}, {8, 1}},
	} {
		for trial := 0; trial < 50; trial++ {
			bits := make([]byte, 1+rng.Intn(8))
			rng.Read(bits)
			sameAsWalk(t, rawBlock(1+rng.Intn(8*len(bits)), table, bits))
		}
	}
}

// TestTableDecodeStreamEndsInsideCode: a stream cut inside a code fails
// as the walk does, whether the code is longer than the table or fits it
// but runs past the real bits left.
func TestTableDecodeStreamEndsInsideCode(t *testing.T) {
	table := longTable()
	for _, sym := range []uint32{3, 10, 20, maxCodeLen} {
		blob := codedBlock(table, []uint32{0, sym})
		for cut := 1; cut <= 6 && cut < len(blob); cut++ {
			if _, err := sameAsWalk(t, blob[:len(blob)-cut]); err == nil && sym > 8 {
				t.Fatalf("symbol %d cut by %d bytes decoded", sym, cut)
			}
		}
	}
	// Two short codes end the stream within one byte: the table
	// resolves them on fewer real bits than it is wide.
	got, err := sameAsWalk(t, codedBlock(table, []uint32{1, 2}))
	if err != nil || !slices.Equal(got, []uint32{1, 2}) {
		t.Fatalf("short tail: %v (err %v)", got, err)
	}
}

// TestWordDecodeMatchesWalk: streams long enough for the word-at-a-time
// decode — valid, oversubscribed and with codes up to maxCodeLen bits,
// across the progress steps — decode as the walk does, up to the same
// error where the stream ends inside a code or holds no code.
func TestWordDecodeMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, table := range [][]symLen{
		longTable(),
		{{0, 1}, {1, 1}, {2, 1}},
		{{0, 2}, {1, 1}, {2, 3}, {3, 3}, {4, 3}, {5, 12}, {6, 12}},
		{{3, 11}, {4, 11}, {5, 12}, {6, 1}, {7, 1}, {8, 1}},
		{{0, 3}, {1, 3}, {2, 3}, {7, 20}}, // incomplete: most 20-bit words hold no code
	} {
		for trial := 0; trial < 40; trial++ {
			bits := make([]byte, 9+rng.Intn(300))
			rng.Read(bits)
			sameAsWalk(t, rawBlock(1+rng.Intn(8*len(bits)), table, bits))
		}
	}
	syms := make([]uint32, 3*progressStep+17)
	for i := range syms {
		syms[i] = uint32(rng.Intn(len(longTable())))
	}
	blob := codedBlock(longTable(), syms)
	if got, err := sameAsWalk(t, blob); err != nil || !slices.Equal(got, syms) {
		t.Fatalf("long stream: err %v", err)
	}
	sameAsWalk(t, blob[:len(blob)-3])
}

// TestDecodeIntoProgress: a consumer on another goroutine that trails
// DecodeInto's progress only ever reads decoded symbols; a set stop flag
// ends the decode with ErrStopped; a buffer of the wrong length is an
// error.
func TestDecodeIntoProgress(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	syms := make([]uint32, 5*progressStep+3)
	for i := range syms {
		syms[i] = uint32(rng.Intn(50))
	}
	blob := Compress(syms)
	s, err := Open(blob)
	if err != nil || s.Len() != len(syms) {
		t.Fatalf("Open: len %d, err %v", s.Len(), err)
	}
	out := make([]uint32, s.Len())
	var done atomic.Int64
	errc := make(chan error, 1)
	go func() { errc <- s.DecodeInto(out, &done, nil) }()
	for read := 0; read < len(out); {
		d := int(done.Load())
		if !slices.Equal(out[read:d], syms[read:d]) {
			t.Fatalf("symbols %d..%d published before they were decoded", read, d)
		}
		read = d
		runtime.Gosched()
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	s, _ = Open(blob)
	var stop atomic.Bool
	stop.Store(true)
	if err := s.DecodeInto(out, &done, &stop); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped decode: err %v, want ErrStopped", err)
	}
	s, _ = Open(blob)
	if err := s.DecodeInto(out[1:], nil, nil); err == nil {
		t.Fatal("a short buffer decoded")
	}
	// The failed decode handed the decoder back: the stream is spent.
	if err := s.DecodeInto(out, nil, nil); err == nil {
		t.Fatal("a stream decoded twice")
	}
}

// FuzzHuffmanDecompress: on any input the table decoder returns the
// walk's symbols or the walk's error.
func FuzzHuffmanDecompress(f *testing.F) {
	f.Add([]byte{})
	f.Add(Compress([]uint32{1, 2, 3, 4, 5, 6, 7, 8}))
	f.Add(Compress([]uint32{7, 7, 7}))
	f.Add(Compress([]uint32{0, 1000000, 5, 1000000, 0, 42}))
	f.Add(codedBlock(longTable(), []uint32{0, 12, 30, 47, 48, 1}))
	f.Add(rawBlock(9, []symLen{{0, 2}, {1, 1}, {2, 3}, {3, 3}, {5, 12}}, []byte{0x5a, 0xc3, 0x11}))
	f.Add(rawBlock(80, []symLen{{0, 2}, {1, 1}, {2, 3}, {3, 3}, {5, 12}}, bytes.Repeat([]byte{0x5a, 0xc3, 0x11}, 5)))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsWalk(t, data)
	})
}

func TestZigzag(t *testing.T) {
	cases := map[int64]uint32{0: 0, -1: 1, 1: 2, -2: 3, 2: 4, 100: 200, -100: 199}
	for v, want := range cases {
		if got := Zigzag(v); got != want {
			t.Errorf("Zigzag(%d) = %d, want %d", v, got, want)
		}
		if back := Unzigzag(want); back != v {
			t.Errorf("Unzigzag(%d) = %d, want %d", want, back, v)
		}
	}
}

func TestZigzagRoundTripQuick(t *testing.T) {
	f := func(v int32) bool {
		return Unzigzag(Zigzag(int64(v))) == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicOutput(t *testing.T) {
	syms := []uint32{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	a := Compress(syms)
	b := Compress(syms)
	if string(a) != string(b) {
		t.Error("Compress not deterministic")
	}
}

// BenchmarkHuffman exercises the full encode+decode cycle on realistic
// quantization-code distributions (run with -benchmem to see the codebook
// allocation profile). The "sparse" variant forces the map fallback path
// with symbols above the dense table range.
func BenchmarkHuffman(b *testing.B) {
	bench := func(name string, gen func(rng *rand.Rand) uint32) {
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(35))
			syms := make([]uint32, 1<<16)
			for i := range syms {
				syms[i] = gen(rng)
			}
			b.SetBytes(int64(len(syms) * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blob := Compress(syms)
				if _, err := Decompress(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	bench("dense", func(rng *rand.Rand) uint32 {
		// Geometric-ish, like zigzagged quantization codes.
		v := uint32(0)
		for rng.Float64() < 0.5 && v < 40 {
			v++
		}
		return v
	})
	bench("sparse", func(rng *rand.Rand) uint32 {
		if rng.Float64() < 0.01 {
			return 4096 + uint32(rng.Intn(1<<20))
		}
		return uint32(rng.Intn(64))
	})
}

func BenchmarkCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	syms := make([]uint32, 1<<16)
	for i := range syms {
		syms[i] = uint32(rng.Intn(64))
	}
	b.SetBytes(int64(len(syms) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(syms)
	}
}

func BenchmarkDecompress(b *testing.B) {
	rng := rand.New(rand.NewSource(34))
	syms := make([]uint32, 1<<16)
	for i := range syms {
		syms[i] = uint32(rng.Intn(64))
	}
	blob := Compress(syms)
	b.SetBytes(int64(len(syms) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// streamSyms turns fuzz bytes into a symbol slice: three bytes a
// symbol, the first two its low bits and the third, when odd, lifting
// it past denseSyms into the outlier range.
func streamSyms(data []byte) []uint32 {
	syms := make([]uint32, 0, len(data)/3)
	for ; len(data) >= 3; data = data[3:] {
		s := uint32(binary.LittleEndian.Uint16(data))
		if data[2]&1 != 0 {
			s += denseSyms + uint32(data[2])<<16
		}
		syms = append(syms, s)
	}
	return syms
}

// symBytes is streamSyms' inverse for seeds.
func symBytes(syms []uint32) []byte {
	var b []byte
	for _, s := range syms {
		if s < denseSyms {
			b = append(b, byte(s), byte(s>>8), 0)
			continue
		}
		s -= denseSyms
		b = append(b, byte(s), byte(s>>8), byte(s>>16)|1)
	}
	return b
}

// bitBlock is the block Compress wrote before the word-at-a-time
// encoder: the plan's head, then every code through the bit writer.
func bitBlock(syms []uint32) []byte {
	p := NewPlan(syms)
	var w bitstream.Writer
	for _, s := range syms {
		c, ok := p.sparse[s]
		if s < denseSyms {
			c, ok = p.dt.codes[s], true
		}
		if !ok {
			panic("symbol without a code")
		}
		w.WriteBits(c.bits, uint(c.len))
	}
	densePool.Put(p.dt)
	return append(p.head, w.Bytes()...)
}

// FuzzHuffmanStream: for any symbols and any chunk size, a plan of the
// symbols in segments, encoded in chunks through a flush, writes the
// bytes Compress writes, and those are the bit writer's bytes and decode
// back to the symbols.
func FuzzHuffmanStream(f *testing.F) {
	f.Add([]byte{}, uint16(1))
	f.Add(symBytes([]uint32{7}), uint16(3))
	dense := make([]uint32, 5000)
	for i := range dense {
		dense[i] = uint32(i*i) % 300
	}
	f.Add(symBytes(dense), uint16(64))
	// 4,200 outliers among 6,300 symbols.
	outliers := make([]uint32, 6300)
	for i := range outliers {
		outliers[i] = denseSyms + uint32(i)*7
		if i%3 == 0 {
			outliers[i] = uint32(i % 11)
		}
	}
	f.Add(symBytes(outliers), uint16(4096))
	f.Add(symBytes(outliers), uint16(7))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		syms := streamSyms(data)
		want := Compress(syms)
		if ref := bitBlock(syms); !bytes.Equal(want, ref) {
			t.Fatalf("Compress differs from the bit writer's block (%d against %d bytes)", len(want), len(ref))
		}
		size := int(chunk)%4096 + 1
		// The stream in segments, cut at multiples of the chunk size.
		var segs [][]uint32
		for rest := syms; ; {
			k := min(len(rest), size*(1+len(segs)%3))
			segs = append(segs, rest[:k])
			if rest = rest[k:]; len(rest) == 0 {
				break
			}
		}
		p := NewPlan(segs...)
		if p.Len() != len(want) {
			t.Fatalf("plan length %d, block %d bytes", p.Len(), len(want))
		}
		var got []byte
		rest := p.Encode(make([]byte, 0, size), func(full []byte) []byte {
			if len(full) != size {
				t.Fatalf("flushed a %d-byte chunk of %d", len(full), size)
			}
			got = append(got, full...)
			return full[:0]
		}, segs...)
		got = append(got, rest...)
		if !bytes.Equal(got, want) {
			t.Fatalf("streamed block (%d bytes) differs from Compress (%d bytes)", len(got), len(want))
		}
		back, err := Decompress(got)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(back, syms) {
			t.Fatal("streamed block does not decode to its symbols")
		}
	})
}
