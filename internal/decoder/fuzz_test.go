package decoder

import (
	"testing"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// FuzzDecodePatch maps fuzzer bytes onto arbitrary subsets of a code's
// stabilizer ancillas and holds the bit-packed production decoder
// (DecodePatch / DecodePatchInto, which must agree byte for byte) to the
// differential contract against the frozen reference matcher:
// per-cluster minimum weight, syndrome annihilation, and byte identity
// when every cluster stays on the DP.
func FuzzDecodePatch(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{})
	f.Add(byte(0), byte(1), []byte{0x01})
	f.Add(byte(1), byte(0), []byte{0xff, 0x0f})
	f.Add(byte(2), byte(1), []byte{0xaa, 0x55, 0x33})
	f.Add(byte(2), byte(0), []byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, dSel, basisSel byte, bits []byte) {
		d := []int{3, 5, 7}[int(dSel)%3]
		basis := pauli.Z
		if basisSel%2 == 1 {
			basis = pauli.X
		}
		c := surface.NewCode(d)
		// Bit i of the input selects the i-th stabilizer of the chosen
		// basis, so every input is a valid plaquette subset and the whole
		// subset space is reachable.
		syn := make(map[surface.Coord]bool)
		i := 0
		for _, st := range c.Stabilizers() {
			if st.Basis != basis {
				continue
			}
			if i/8 < len(bits) && bits[i/8]&(1<<uint(i%8)) != 0 {
				syn[st.Anc] = true
			}
			i++
		}

		got := DecodePatch(c, basis, syn)
		if err := CheckDifferential(c, basis, syn, got); err != nil {
			t.Fatalf("d=%d basis=%v syn=%v: %v", d, basis, syn, err)
		}

		bm := NewSyndromeBitmap(c)
		bm.FromMap(syn)
		var sc Scratch
		var res Result
		DecodePatchInto(c, basis, bm, &sc, &res)
		if !resultsEqual(got, res) {
			t.Fatalf("d=%d basis=%v syn=%v: DecodePatchInto diverged from DecodePatch:\nDecodePatch %+v\nInto        %+v", d, basis, syn, got, res)
		}
	})
}
