package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// testFrame is one frame for frameBytes.
type testFrame struct {
	op      byte
	aux     uint32
	payload []float64
}

// frameBytes marshals frames exactly like one link does — through a single
// rankConn's writeFrame into a memory buffer, so they carry frame numbers
// 0, 1, … — which keeps the seed corpus in lockstep with the encoder.
func frameBytes(t testing.TB, frames ...testFrame) []byte {
	t.Helper()
	var buf bytes.Buffer
	rc := &rankConn{w: bufio.NewWriter(&buf), peer: -1}
	for _, f := range frames {
		if err := rc.writeFrame(f.op, f.aux, f.payload); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
	}
	return buf.Bytes()
}

// Frame mutations shared by the round-trip table and the fuzz seeds. Byte
// offsets follow the header layout op(0) aux(1:5) n(5:9).
func flipPayloadBit(b []byte) []byte { b[len(b)-3] ^= 0x10; return b }
func flipAuxBit(b []byte) []byte     { b[1] ^= 0x01; return b }
func flipOpBit(b []byte) []byte      { b[0] ^= 0x01; return b }
func oversize(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[5:9], maxFrameWords+1)
	return b
}

// gapFrames is two frames with the first one lost: the reader meets frame
// number 1 where it expects 0.
func gapFrames(t testing.TB) []byte {
	first := frameBytes(t, testFrame{op: opTagged, aux: 9, payload: []float64{1}})
	return frameBytes(t, testFrame{op: opTagged, aux: 9, payload: []float64{1}},
		testFrame{op: opTagged, aux: 9, payload: []float64{2}})[len(first):]
}

// FuzzDecodeFrame drives the wire decoders (readFrame and readBlob) with
// arbitrary bytes. The contract under test: the decoders return errors —
// they never panic, never allocate beyond the frame bounds
// (maxFrameWords/maxBlobLen), and never loop forever on a finite stream.
func FuzzDecodeFrame(f *testing.F) {
	// Ops 1 and 2 (the retired root star's collectives) are unknown ops.
	f.Add(frameBytes(f, testFrame{op: 1}))
	f.Add(frameBytes(f, testFrame{op: opTagged, aux: 42, payload: []float64{1, 2.5, -3}}))
	f.Add(frameBytes(f, testFrame{op: 2, payload: []float64{3.14}}))
	f.Add(flipPayloadBit(frameBytes(f, testFrame{op: 1, payload: []float64{1e300}})))
	f.Add(oversize(frameBytes(f, testFrame{op: 2})))
	// A heartbeat is consumed transparently, the frame after it decoded.
	f.Add(frameBytes(f, testFrame{op: opHeartbeat}, testFrame{op: 1}))
	f.Add([]byte{})
	f.Add([]byte("not a frame at all"))
	f.Add(flipAuxBit(frameBytes(f, testFrame{op: opTagged, aux: 6, payload: []float64{1}})))
	f.Add(flipOpBit(frameBytes(f, testFrame{op: opTagged, aux: 6, payload: []float64{1}})))
	f.Add(gapFrames(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		rc := &rankConn{r: bufio.NewReader(bytes.NewReader(data)), peer: -1}
		for {
			_, _, payload, err := rc.readFrame()
			if err != nil {
				break // any error is acceptable; a panic or hang is not
			}
			putBuf(payload)
		}
		rc = &rankConn{r: bufio.NewReader(bytes.NewReader(data)), peer: -1}
		for {
			if _, err := rc.readBlob(); err != nil {
				break
			}
		}
	})
}

// TestDecodeFrameRoundTrip pins the encoder/decoder pair outside the fuzz
// engine: frames round-trip, and every damaged stream — any header or
// payload bit, an oversized length, a lost or duplicated frame — fails as
// ErrRankFailed naming the link's peer instead of decoding.
func TestDecodeFrameRoundTrip(t *testing.T) {
	payload := []float64{0, 1.5, -2.25, 1e-300}
	frame := func() []byte { return frameBytes(t, testFrame{op: opTagged, aux: 9, payload: payload}) }
	for _, tc := range []struct {
		name string
		data []byte
		good int // frames that decode intact before the damage
		bad  bool
	}{
		{"intact", frame(), 1, false},
		{"payload bit", flipPayloadBit(frame()), 0, true},
		{"oversized length", oversize(frame()), 0, true},
		{"aux bit", flipAuxBit(frame()), 0, true},
		{"op bit", flipOpBit(frame()), 0, true},
		{"retired star op", frameBytes(t, testFrame{op: 1, aux: 9, payload: payload}), 0, true},
		{"frame gap", gapFrames(t), 0, true},
		{"duplicated frame", append(frame(), frame()...), 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := &rankConn{r: bufio.NewReader(bytes.NewReader(tc.data)), peer: 3}
			for i := 0; i < tc.good; i++ {
				op, aux, got, err := rc.readFrame()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if op != opTagged || aux != 9 || len(got) != len(payload) {
					t.Fatalf("frame %d: op=%d aux=%d n=%d", i, op, aux, len(got))
				}
				for j := range payload {
					if got[j] != payload[j] {
						t.Fatalf("frame %d: payload[%d] = %v, want %v", i, j, got[j], payload[j])
					}
				}
				putBuf(got)
			}
			_, _, _, err := rc.readFrame()
			var rf ErrRankFailed
			if !errors.As(err, &rf) || rf.Rank != 3 {
				t.Fatalf("got %v, want ErrRankFailed naming rank 3", err)
			}
			ended := errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
			if ended == tc.bad {
				t.Fatalf("want a bad frame = %v, got end of stream = %v: %v", tc.bad, ended, err)
			}
		})
	}
}

// TestReadFrameAllocationFollowsBytes: a length field damaged to the bound
// with a few bytes behind it costs an error, not a scratch buffer the size
// the field claims.
func TestReadFrameAllocationFollowsBytes(t *testing.T) {
	data := frameBytes(t, testFrame{op: opTagged, payload: make([]float64, 16)})
	binary.LittleEndian.PutUint32(data[5:9], maxFrameWords)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rc := &rankConn{r: bufio.NewReader(bytes.NewReader(data)), peer: 3}
	if _, _, _, err := rc.readFrame(); err == nil {
		t.Fatal("damaged length decoded without error")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
	}
}
