// Self-test for the slabbuffer analyzer: streaming paths (named
// *stream* or handling streaming types) must not materialize whole
// inputs — no io.ReadAll/os.ReadFile, no make() sized by an
// input-derived 64-bit length.
package slabpkg

import (
	"io"
	"os"
)

// SlabSource is a name-matched streaming type stub.
type SlabSource interface {
	Dims() []int
}

// StreamReader is a name-matched streaming type stub.
type StreamReader struct{ lens []int64 }

// readAllStream is streaming by name: both whole-input reads fire.
func readAllStream(r io.Reader, path string) ([]byte, error) {
	b, err := io.ReadAll(r) // want "io.ReadAll buffers the whole input on a streaming path"
	if err != nil {
		return nil, err
	}
	c, err := os.ReadFile(path) // want "os.ReadFile buffers the whole input on a streaming path"
	if err != nil {
		return nil, err
	}
	return append(b, c...), nil
}

// loadBlob handles a streaming type, so the blob-length make fires; the
// window-sized one is int arithmetic and stays clean.
func loadBlob(sr *StreamReader, step, window, plane int) []byte {
	scratch := make([]float32, window*plane) // int-sized: fine
	_ = scratch
	return make([]byte, sr.lens[step]) // want "sized by a 64-bit length"
}

// loadBlobExcused is the audited escape hatch: a justified directive
// suppresses the finding.
func loadBlobExcused(sr *StreamReader, step int) []byte {
	//lint:ignore slabbuffer the index slice is O(steps) by construction, never blob data
	return make([]byte, sr.lens[step])
}

// capSized fires on a 64-bit capacity even when the length is int.
func capSized(src SlabSource, n int64) []int {
	return make([]int, 0, n) // want "sized by a 64-bit length"
}

// OpenStream is a name-matched stub returning a streaming type.
func OpenStream(r io.ReaderAt, size int64) (*StreamReader, error) { return &StreamReader{}, nil }

// openCommand takes only flags, but opens a container: a whole-file
// read beside it fires.
func openCommand(path string) error {
	sr, err := OpenStream(nil, 0)
	if err != nil {
		return err
	}
	_ = sr
	_, err = os.ReadFile(path) // want "os.ReadFile buffers the whole input on a streaming path"
	return err
}

// plainLoader has no streaming marker: whole-file reads and 64-bit
// makes are some other analyzer's business here.
func plainLoader(path string, n int64) ([]byte, []byte, error) {
	b, err := os.ReadFile(path)
	return b, make([]byte, n), err
}

// constSized is a fixed scratch buffer, not input-derived: clean even
// on a streaming path.
func constSized(src SlabSource) []byte {
	const headLen int64 = 4096
	return make([]byte, headLen)
}
