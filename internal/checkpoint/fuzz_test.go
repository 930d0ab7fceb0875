package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzUnframe decodes arbitrary bytes as a checkpoint generation file and
// checks three properties: unframe never panics; it accepts exactly the
// frames whose header (magic, version, payload length) and CRC verify,
// judged here independently of unframe, and then returns their payload; and
// framing the input as a payload round-trips it. The seed corpus under
// testdata/fuzz holds the frame of an empty payload, a solve snapshot and a
// service state; `go test` runs the seeds, and `go test -fuzz FuzzUnframe
// ./internal/checkpoint` searches further.
func FuzzUnframe(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := unframe(data)
		valid := len(data) >= headerSize &&
			string(data[:8]) == magic &&
			binary.LittleEndian.Uint32(data[8:12]) == version &&
			binary.LittleEndian.Uint64(data[12:20]) == uint64(len(data)-headerSize) &&
			binary.LittleEndian.Uint32(data[20:24]) == crc32.ChecksumIEEE(data[headerSize:])
		switch {
		case valid && err != nil:
			t.Fatalf("a frame whose header and CRC verify was refused: %v", err)
		case !valid && err == nil:
			t.Fatal("a frame whose header or CRC does not verify was accepted")
		case valid && !bytes.Equal(payload, data[headerSize:]):
			t.Fatal("an accepted frame's payload came back altered")
		}
		back, err := unframe(frame(data))
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("unframe(frame(p)) = (%q, %v), want p", back, err)
		}
	})
}
