package types

import (
	"bytes"
	"testing"
)

func fuzzSyncRequest() *StateSyncRequestMsg {
	return &StateSyncRequestMsg{
		Kind:      SyncKindRecords,
		From:      42,
		MaxBytes:  1 << 20,
		Requester: "e3",
		Nonce:     7,
		Sig:       []byte{1, 2},
	}
}

func fuzzSyncResponse() *StateSyncResponseMsg {
	return &StateSyncResponseMsg{
		Nonce:     7,
		Kind:      SyncKindRecords,
		From:      42,
		Records:   [][]byte{{0xaa, 0xbb}, {}, {0x01}},
		Height:    45,
		Responder: "e1",
		Sig:       []byte{3},
	}
}

func FuzzUnmarshalStateSyncRequest(f *testing.F) {
	f.Add(fuzzSyncRequest().Marshal())
	chunk := &StateSyncRequestMsg{Kind: SyncKindSnapshot, From: 128, Chunk: 3, Requester: "e2", Nonce: 9}
	f.Add(chunk.Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalStateSyncRequest(data)
		if err != nil {
			return
		}
		if m.Kind > SyncKindSnapshot {
			t.Fatalf("decoder admitted request kind %d", m.Kind)
		}
		if !bytes.Equal(m.Marshal(), data) {
			t.Fatal("an accepted STATE-SYNC-REQUEST does not re-encode to its input")
		}
	})
}

func FuzzUnmarshalStateSyncResponse(f *testing.F) {
	f.Add(fuzzSyncResponse().Marshal())
	snap := &StateSyncResponseMsg{
		Nonce: 9, Kind: SyncKindSnapshot, SnapHeight: 128, ChunkIdx: 1, Chunks: 4,
		Chunk: []byte{9, 9, 9}, Height: 200, Responder: "e1",
	}
	f.Add(snap.Marshal())
	f.Add((&StateSyncResponseMsg{Kind: SyncKindNothing, Responder: "e2"}).Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xfe}, 48))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalStateSyncResponse(data)
		if err != nil {
			return
		}
		if m.Kind > SyncKindNothing {
			t.Fatalf("decoder admitted response kind %d", m.Kind)
		}
		if !bytes.Equal(m.Marshal(), data) {
			t.Fatal("an accepted STATE-SYNC-RESPONSE does not re-encode to its input")
		}
	})
}

// TestStateSyncCodecRoundTrip pins exact round trips for the catch-up
// message codecs: digests (the values signed by requester and responder)
// must survive the wire byte for byte, and record payloads must stay
// bit-identical because the requester re-verifies their contents.
func TestStateSyncCodecRoundTrip(t *testing.T) {
	req := fuzzSyncRequest()
	reqBack, err := UnmarshalStateSyncRequest(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if reqBack.Digest() != req.Digest() {
		t.Fatal("request digest changed across the wire")
	}
	if reqBack.Kind != req.Kind || reqBack.From != req.From || reqBack.Nonce != req.Nonce ||
		reqBack.MaxBytes != req.MaxBytes || reqBack.Requester != req.Requester ||
		!bytes.Equal(reqBack.Sig, req.Sig) {
		t.Fatalf("request fields changed: %+v", reqBack)
	}

	resp := fuzzSyncResponse()
	respBack, err := UnmarshalStateSyncResponse(resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if respBack.Digest() != resp.Digest() {
		t.Fatal("response digest changed across the wire")
	}
	if len(respBack.Records) != len(resp.Records) {
		t.Fatalf("record count changed: %d", len(respBack.Records))
	}
	for i := range resp.Records {
		if !bytes.Equal(respBack.Records[i], resp.Records[i]) {
			t.Fatalf("record %d changed across the wire", i)
		}
	}
	if respBack.Height != resp.Height || respBack.Nonce != resp.Nonce {
		t.Fatalf("response fields changed: %+v", respBack)
	}

	// A kind outside the defined set must fail the decode, not silently
	// reach a handler.
	bad := fuzzSyncRequest()
	bad.Kind = 9
	if _, err := UnmarshalStateSyncRequest(bad.Marshal()); err == nil {
		t.Fatal("decoder admitted an unknown request kind")
	}
}
