package stream_test

import (
	"bytes"
	"testing"

	"powercontainers/internal/stream"
)

// FuzzDecodeCheckpoint feeds arbitrary bytes through the checkpoint
// decoder and pins the invariant behind the durable store's fallback
// ladder: DecodeCheckpoint either rejects the input with an error or
// returns a checkpoint whose re-encoding decodes to the identical
// canonical form — accepted checkpoints are stable, never half-parsed.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte(`{"version":3}`))
	f.Add([]byte(`{"version":3,"tick":3,"t":300000000,"records":7,"containers_seen":1,"live":[{"id":0}],"attributed":{},"metric_len":300,"metric_sha256":"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}`))
	f.Add([]byte(`{"version":3,"tick":-1}`))
	f.Add([]byte(`{"version":2,"tick":3,"t":300000000,"records":7,"containers_seen":1,"live":[{"id":0}],"attributed":{},"modeled":{}}`))
	f.Add([]byte(`{"version":99,"tick":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := stream.DecodeCheckpoint(data)
		if err != nil {
			return
		}
		enc := stream.EncodeCheckpoint(cp)
		cp2, err := stream.DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("accepted checkpoint re-decode failed: %v\nencoded: %s", err, enc)
		}
		if !bytes.Equal(enc, stream.EncodeCheckpoint(cp2)) {
			t.Fatalf("re-encoding not stable:\n%s\n%s", enc, stream.EncodeCheckpoint(cp2))
		}
	})
}
