package encoder

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/integrity"
)

func TestDeflateInflate(t *testing.T) {
	data := bytes.Repeat([]byte("compressible content "), 100)
	z, err := Deflate(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(z) >= len(data) {
		t.Errorf("no compression: %d -> %d", len(data), len(z))
	}
	back, err := Inflate(z)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestPackUnpack(t *testing.T) {
	sections := [][]byte{
		[]byte("header"),
		nil,
		bytes.Repeat([]byte{7}, 1000),
		{0xFF},
	}
	blob, err := Pack(sections...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sections) {
		t.Fatalf("got %d sections", len(got))
	}
	for i := range sections {
		if !bytes.Equal(got[i], sections[i]) {
			t.Fatalf("section %d mismatch", i)
		}
	}
}

func TestPackEmpty(t *testing.T) {
	blob, err := Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(blob)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestUnpackCorrupt(t *testing.T) {
	if _, err := Unpack([]byte{1, 2, 3}); err == nil {
		t.Error("garbage should fail to inflate")
	}
	// Valid deflate stream of a truncated container.
	z, _ := Deflate([]byte{5}) // claims 5 sections, provides none
	if _, err := Unpack(z); err == nil {
		t.Error("truncated container should error")
	}
}

// TestUnpackSectionSizing pins Unpack's section reads: a section longer
// than the preallocation round-trips through the growth path, and a
// length that claims more bytes than the stream holds fails as corrupt
// after allocating about what the stream does hold, not what it claims.
func TestUnpackSectionSizing(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), (2*sectionPrealloc+12345)/16)
	blob, err := Pack([]byte("hdr"), big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(blob)
	if err != nil || len(got) != 2 || !bytes.Equal(got[0], []byte("hdr")) || !bytes.Equal(got[1], big) {
		t.Fatalf("large section: err %v, %d sections", err, len(got))
	}

	raw := binary.AppendUvarint(nil, 1)
	raw = binary.AppendUvarint(raw, 1<<30) // claims 1 GiB
	raw = append(raw, make([]byte, 64<<10)...)
	z, err := Deflate(raw)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Unpack(z)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lying length: err %v, want ErrCorrupt", err)
	}
	if a := after.TotalAlloc - before.TotalAlloc; a > 2*sectionPrealloc {
		t.Fatalf("lying length allocated %d B", a)
	}
}

func TestQuickPackRoundTrip(t *testing.T) {
	f := func(a, b, c []byte) bool {
		blob, err := Pack(a, b, c)
		if err != nil {
			return false
		}
		got, err := Unpack(blob)
		if err != nil || len(got) != 3 {
			return false
		}
		return bytes.Equal(got[0], a) && bytes.Equal(got[1], b) && bytes.Equal(got[2], c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// rawPack is the container deflated in one write, as Pack built it
// before it streamed.
func rawPack(sections ...[]byte) []byte {
	raw := binary.AppendUvarint(nil, uint64(len(sections)))
	for _, s := range sections {
		raw = binary.AppendUvarint(raw, uint64(len(s)))
		raw = append(raw, s...)
	}
	z, err := Deflate(raw)
	if err != nil {
		panic(err)
	}
	return z
}

// TestStreamMatchesPack: a Stream written in random pieces, through
// Append and through AppendWith's chunks, serial and concurrent, returns
// the one-write container byte for byte, and Sum is the CRC32C of the
// section contents.
func TestStreamMatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		sections := make([][]byte, 1+rng.Intn(5))
		for i := range sections {
			n := rng.Intn(3 * chunkSize)
			if i == 0 {
				n = rng.Intn(200)
			}
			sec := make([]byte, n)
			for j := range sec {
				sec[j] = byte(rng.Intn(4 + j%7))
			}
			sections[i] = sec
		}
		want := rawPack(sections...)
		for _, concurrent := range []bool{false, true} {
			s := NewStream(len(sections), concurrent)
			for i, sec := range sections {
				s.Section(len(sec))
				if i%2 == 0 {
					for rest := sec; len(rest) > 0; {
						k := min(len(rest), 1+rng.Intn(5000))
						s.Append(rest[:k])
						rest = rest[k:]
					}
				} else {
					s.AppendWith(func(chunk []byte, flush func([]byte) []byte) []byte {
						for _, b := range sec {
							chunk = append(chunk, b)
							if len(chunk) == cap(chunk) {
								chunk = flush(chunk)
							}
						}
						return chunk
					})
				}
				if got, want := s.Sum(), integrity.Checksum(sections[:i+1]...); got != want {
					t.Fatalf("trial %d section %d: Sum %08x, want %08x", trial, i, got, want)
				}
			}
			got, err := s.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d (concurrent %v): streamed container differs from the one-write container", trial, concurrent)
			}
			if again, err := s.Close(); again != nil || err != nil {
				t.Fatal("a second Close must do nothing")
			}
		}
		if got, _ := Pack(sections...); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: Pack differs from the one-write container", trial)
		}
	}
}

// TestPooledReadersConcurrent: Inflate, Unpack and UnpackFirst share
// pooled DEFLATE readers. Concurrent calls over different containers —
// some corrupt or cut short, which leave a reader mid-stream — each get
// their own container's bytes or error, and a reader that failed serves
// the next call cleanly.
func TestPooledReadersConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type container struct {
		sections [][]byte
		blob     []byte
	}
	var cs []container
	for i := 0; i < 8; i++ {
		secs := make([][]byte, 1+i%3)
		for j := range secs {
			secs[j] = make([]byte, rng.Intn(40000))
			for k := range secs[j] {
				secs[j][k] = byte(rng.Intn(4 + i))
			}
		}
		blob, err := Pack(secs...)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, container{secs, blob})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				c := cs[(w+r)%len(cs)]
				if _, err := Unpack(c.blob[:len(c.blob)/2]); err == nil {
					t.Error("a container cut in half unpacked")
				}
				got, err := Unpack(c.blob)
				if err != nil || len(got) != len(c.sections) {
					t.Errorf("Unpack: %d sections, err %v", len(got), err)
					return
				}
				for k := range got {
					if !bytes.Equal(got[k], c.sections[k]) {
						t.Errorf("Unpack: section %d differs", k)
					}
				}
				first, err := UnpackFirst(c.blob)
				if err != nil || !bytes.Equal(first, c.sections[0]) {
					t.Errorf("UnpackFirst: err %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkDeflate(b *testing.B) {
	rng := rand.New(rand.NewSource(40))
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(rng.Intn(16)) // compressible
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Deflate(data); err != nil {
			b.Fatal(err)
		}
	}
}
