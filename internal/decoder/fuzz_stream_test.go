package decoder

import (
	"testing"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// fuzzBasisStabs resolves the fuzzer's (dSel, basisSel) selectors to a
// code, a basis, and that basis' stabilizers, sharing FuzzDecodePatch's
// mapping so corpora transfer between targets.
func fuzzBasisStabs(dSel, basisSel byte) (surface.Code, pauli.Pauli, []surface.Stabilizer) {
	d := []int{3, 5, 7}[int(dSel)%3]
	basis := pauli.Z
	if basisSel%2 == 1 {
		basis = pauli.X
	}
	c := surface.NewCode(d)
	var stabs []surface.Stabilizer
	for _, st := range c.Stabilizers() {
		if st.Basis == basis {
			stabs = append(stabs, st)
		}
	}
	return c, basis, stabs
}

// FuzzUnionFind maps fuzzer bytes onto arbitrary plaquette subsets and
// asserts the union-find backend's contract: the correction annihilates
// the input syndrome exactly, its weight is never below the exact
// matcher's minimum, and decoding is deterministic across repeat,
// fresh, and cloned backends.
func FuzzUnionFind(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{})
	f.Add(byte(0), byte(1), []byte{0x01})
	f.Add(byte(1), byte(0), []byte{0xff, 0x0f})
	f.Add(byte(2), byte(1), []byte{0xaa, 0x55, 0x33})
	f.Add(byte(2), byte(0), []byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, dSel, basisSel byte, bits []byte) {
		c, basis, stabs := fuzzBasisStabs(dSel, basisSel)
		syn := make(map[surface.Coord]bool)
		bm := NewSyndromeBitmap(c)
		for i, st := range stabs {
			if i/8 < len(bits) && bits[i/8]&(1<<uint(i%8)) != 0 {
				syn[st.Anc] = true
				bm.Set(st.Anc)
			}
		}

		u := NewUnionFindBackend()
		var res Result
		u.Decode(c, basis, bm, &res)

		resyn := SyndromeOf(c, basis, res.Flips)
		for p := range syn {
			if !resyn[p] {
				t.Fatalf("d=%d basis=%v: correction misses plaquette %v (syn %v flips %v)", c.D, basis, p, syn, res.Flips)
			}
		}
		for p, on := range resyn {
			if on && !syn[p] {
				t.Fatalf("d=%d basis=%v: correction excites plaquette %v (syn %v flips %v)", c.D, basis, p, syn, res.Flips)
			}
		}
		exact := DecodePatch(c, basis, syn)
		if len(res.Flips) < len(exact.Flips) {
			t.Fatalf("d=%d basis=%v: union-find weight %d below the exact minimum %d (syn %v)", c.D, basis, len(res.Flips), len(exact.Flips), syn)
		}

		var again, cloned Result
		u.Decode(c, basis, bm, &again)
		if !resultsEqual(res, again) {
			t.Fatalf("d=%d basis=%v: repeat decode diverged (syn %v)", c.D, basis, syn)
		}
		u.Clone().Decode(c, basis, bm, &cloned)
		if !resultsEqual(res, cloned) {
			t.Fatalf("d=%d basis=%v: clone diverged (syn %v)", c.D, basis, syn)
		}
	})
}

// FuzzStreamDecode maps fuzzer bytes onto a random stream of per-round
// detection events and asserts the window-boundary invariance: decoding
// the stream at the fuzzed cadence, round-by-round, and in one whole-shot
// window all return the same final correction, equal to a direct decode
// of the accumulated syndrome.
func FuzzStreamDecode(f *testing.F) {
	f.Add(byte(0), byte(0), byte(0), []byte{})
	f.Add(byte(0), byte(1), byte(2), []byte{0x01, 0x02, 0x04})
	f.Add(byte(1), byte(0), byte(1), []byte{0xff, 0x0f, 0x00, 0x13, 0x8a, 0x21})
	f.Add(byte(2), byte(1), byte(4), []byte{0xaa, 0x55, 0x33, 0x0f, 0xf0, 0x81, 0x18, 0x42, 0x24})
	f.Fuzz(func(t *testing.T, dSel, basisSel, windowSel byte, data []byte) {
		c, basis, stabs := fuzzBasisStabs(dSel, basisSel)
		perRound := (len(stabs) + 7) / 8
		rounds := len(data) / perRound
		if rounds > 40 {
			rounds = 40
		}

		cum := NewSyndromeBitmap(c)
		events := make([]*SyndromeBitmap, rounds)
		for r := 0; r < rounds; r++ {
			bm := NewSyndromeBitmap(c)
			chunk := data[r*perRound : (r+1)*perRound]
			for i, st := range stabs {
				if chunk[i/8]&(1<<uint(i%8)) != 0 {
					bm.Set(st.Anc)
				}
			}
			events[r] = bm
			cum.Xor(bm)
		}
		var sc Scratch
		var want Result
		DecodePatchInto(c, basis, cum, &sc, &want)

		for _, win := range []int{1 + int(windowSel)%5, rounds + 1} {
			sd, err := NewStreamDecoder(StreamConfig{Code: c, Basis: basis, WindowRounds: win})
			if err != nil {
				t.Fatal(err)
			}
			for _, bm := range events {
				if !sd.Round(bm) {
					t.Fatalf("d=%d win=%d: round dropped with no pressure", c.D, win)
				}
			}
			got := sd.Finish()
			if !resultsEqual(want, *got) {
				t.Fatalf("d=%d basis=%v win=%d rounds=%d: stream diverged from whole-shot:\nwant %+v\ngot  %+v", c.D, basis, win, rounds, want, *got)
			}
			if st := sd.Stats(); st.Rounds != rounds || st.DroppedRounds != 0 {
				t.Fatalf("d=%d win=%d stats = %+v", c.D, win, st)
			}
		}
	})
}
