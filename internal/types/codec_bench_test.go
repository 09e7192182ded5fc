package types

import (
	"bytes"
	"testing"
)

// TestWriterPoolReuse pins the pool contract: acquired writers start
// empty, CloneBytes detaches the encoding from the pooled buffer, and a
// reused writer cannot corrupt a previously cloned encoding.
func TestWriterPoolReuse(t *testing.T) {
	w := AcquireWriter()
	w.Str("first")
	first := w.CloneBytes()
	ReleaseWriter(w)

	w2 := AcquireWriter()
	if len(w2.Bytes()) != 0 {
		t.Fatal("acquired writer must be empty")
	}
	w2.Str("second-encoding-overwrites-buffer")
	ReleaseWriter(w2)

	want := AcquireWriter()
	defer ReleaseWriter(want)
	want.Str("first")
	if !bytes.Equal(first, want.Bytes()) {
		t.Fatalf("cloned encoding corrupted by pool reuse: %q", first)
	}
}

func benchTx() *Transaction {
	return &Transaction{
		ID:       "app1-client7-000042",
		App:      "app1",
		Client:   "client7",
		ClientTS: 42,
		Op: Operation{
			Method: "transfer",
			Params: []string{"account-000123", "account-000456", "250"},
			Reads:  []Key{"account-000123", "account-000456"},
			Writes: []Key{"account-000123", "account-000456"},
		},
		SubmitUnixNano: 1700000000000000000,
		Sig:            make([]byte, 64),
	}
}

// BenchmarkTransactionMarshal is the ordering hot path: one encode per
// transaction per submission. Pooled writers cut it to a single
// exact-size allocation per call.
func BenchmarkTransactionMarshal(b *testing.B) {
	tx := benchTx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tx.Marshal()
	}
}

func BenchmarkTransactionMarshalParallel(b *testing.B) {
	tx := benchTx()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = tx.Marshal()
		}
	})
}

func BenchmarkTransactionRoundTrip(b *testing.B) {
	enc := benchTx().Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalTransaction(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriterPooledVsFresh isolates the pool win on a digest-shaped
// encoding (built, hashed, discarded — no retention).
func BenchmarkWriterPooled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := AcquireWriter()
		w.U64(uint64(i))
		w.Str("account-000123")
		w.Blob(make([]byte, 0))
		ReleaseWriter(w)
	}
}

func BenchmarkWriterFresh(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := &ByteWriter{buf: make([]byte, 0, 512)}
		w.U64(uint64(i))
		w.Str("account-000123")
		w.Blob(make([]byte, 0))
		_ = w.Bytes()
	}
}
