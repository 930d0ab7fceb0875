package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
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

// leaseBytesFS serves data as the content of every file it reads.
type leaseBytesFS struct {
	FS
	data []byte
}

func (b leaseBytesFS) ReadFile(string) ([]byte, error) { return b.data, nil }

// FuzzReadLease reads arbitrary bytes as a lease file. ReadLease must never
// panic or fail on a file it could read, and must return either a lease
// that re-encodes to itself or the zero lease, which is lapsed at every
// instant a holder's clock can read: a garbled lease file never wedges an
// election. It is seeded with a lease file AcquireLease wrote and that file
// torn in half.
func FuzzReadLease(f *testing.F) {
	path := filepath.Join(f.TempDir(), "leader.lease")
	if _, _, err := AcquireLease(OS, path, "a", "http://a:1", time.Second); err != nil {
		f.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	f.Add(file[:len(file)/2])
	instants := []time.Time{time.Unix(0, 1), time.Now(), time.Unix(1<<40, 0)}
	f.Fuzz(func(t *testing.T, data []byte) {
		li, err := ReadLease(leaseBytesFS{OS, data}, "leader.lease")
		if err != nil || li == nil {
			t.Fatalf("ReadLease = (%+v, %v), want a lease", li, err)
		}
		if *li == (LeaseInfo{}) {
			for _, now := range instants {
				if !li.Expired(now) {
					t.Fatalf("the zero lease is live at %v", now)
				}
			}
			return
		}
		enc, err := json.Marshal(li)
		if err != nil {
			t.Fatalf("a decoded lease %+v does not encode: %v", li, err)
		}
		back, err := ReadLease(leaseBytesFS{OS, enc}, "leader.lease")
		if err != nil || back.Holder != li.Holder || back.Addr != li.Addr || back.Epoch != li.Epoch ||
			back.TTL != li.TTL || !back.RenewedAt.Equal(li.RenewedAt) {
			t.Fatalf("lease %+v re-encoded as %s reads back as (%+v, %v)", li, enc, back, err)
		}
	})
}
