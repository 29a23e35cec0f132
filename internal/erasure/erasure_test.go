package erasure

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// --- GF(2^8) field axioms ---

func TestGFMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c byte) bool {
		if gfMul(a, b) != gfMul(b, a) {
			return false
		}
		return gfMul(gfMul(a, b), c) == gfMul(a, gfMul(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFDistributive(t *testing.T) {
	f := func(a, b, c byte) bool {
		return gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFIdentityAndInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		b := byte(a)
		if gfMul(b, 1) != b {
			t.Fatalf("%d * 1 != %d", a, a)
		}
		if gfMul(b, gfInv(b)) != 1 {
			t.Fatalf("%d * inv(%d) != 1", a, a)
		}
	}
}

func TestGFZeroRules(t *testing.T) {
	if gfMul(0, 77) != 0 || gfMul(77, 0) != 0 {
		t.Fatal("multiplication by zero nonzero")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inverting zero did not panic")
		}
	}()
	gfInv(0)
}

func TestGFExp(t *testing.T) {
	if gfExp(2, 0) != 1 {
		t.Fatal("2^0 != 1")
	}
	if gfExp(2, 1) != 2 {
		t.Fatal("2^1 != 2")
	}
	if gfExp(2, 8) != 0x1d {
		t.Fatalf("2^8 = %#x, want 0x1d", gfExp(2, 8))
	}
	if gfExp(0, 5) != 0 {
		t.Fatal("0^5 != 0")
	}
	if gfExp(0, 0) != 1 {
		t.Fatal("0^0 != 1")
	}
}

// --- matrix ---

// identity returns the n-by-n identity matrix.
func identity(n int) *matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, 1)
	}
	return m
}

func TestMatrixInvertIdentity(t *testing.T) {
	id := identity(5)
	inv, err := id.invert()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inv.data, id.data) {
		t.Fatal("identity inverse is not identity")
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	r := stats.NewRNG(42)
	for trial := 0; trial < 20; trial++ {
		n := r.Intn(6) + 2
		m := newMatrix(n, n)
		for i := range m.data {
			m.data[i] = byte(r.Intn(256))
		}
		inv, err := m.invert()
		if err != nil {
			continue // singular random matrix; skip
		}
		prod := m.mul(inv)
		if !bytes.Equal(prod.data, identity(n).data) {
			t.Fatalf("trial %d: M × M^-1 != I", trial)
		}
	}
}

func TestMatrixSingular(t *testing.T) {
	m := newMatrix(2, 2) // all zeros
	if _, err := m.invert(); err == nil {
		t.Fatal("singular matrix inverted")
	}
}

// --- Reed-Solomon ---

// DataShards returns m.
func (c *Code) DataShards() int { return c.m }

// TotalShards returns n.
func (c *Code) TotalShards() int { return c.n }

// ParityShards returns n - m.
func (c *Code) ParityShards() int { return c.n - c.m }

// Join reassembles an object of the given length from the data shards
// Split produced; the length travels out of band.
func (c *Code) Join(data [][]byte, length int) ([]byte, error) {
	if len(data) != c.m {
		return nil, fmt.Errorf("erasure: Join got %d shards, want %d", len(data), c.m)
	}
	joined := bytes.Join(data, nil)
	if len(joined) < length {
		return nil, fmt.Errorf("erasure: shards hold %d bytes, need %d", len(joined), length)
	}
	return joined[:length], nil
}

func TestNewCodeValidation(t *testing.T) {
	for _, c := range []struct{ m, n int }{{0, 5}, {3, 2}, {1, 300}, {-1, 4}} {
		if _, err := NewCode(c.m, c.n); err == nil {
			t.Errorf("NewCode(%d, %d) accepted", c.m, c.n)
		}
	}
	if _, err := NewCode(3, 5); err != nil {
		t.Fatalf("θ(3,5) rejected: %v", err)
	}
}

func TestCodeAccessors(t *testing.T) {
	c, err := NewCode(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.DataShards() != 3 || c.TotalShards() != 5 || c.ParityShards() != 2 {
		t.Fatalf("accessors: %d/%d/%d", c.DataShards(), c.TotalShards(), c.ParityShards())
	}
}

func TestEncodeSystematic(t *testing.T) {
	c, err := NewCode(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{[]byte("abcd"), []byte("efgh"), []byte("ijkl")}
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parity) != 2 {
		t.Fatalf("got %d parity shards", len(parity))
	}
	// Systematic: data shards pass through unchanged; verify holds.
	shards := append(append([][]byte{}, data...), parity...)
	ok, err := c.Verify(shards)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("freshly encoded shards fail verification")
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	c, err := NewCode(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	object := []byte("the quick brown fox jumps over the lazy dog")
	data := c.Split(object)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([][]byte{}, data...), parity...)

	// Erase every subset of up to 2 shards.
	for e1 := 0; e1 < 5; e1++ {
		for e2 := e1; e2 < 5; e2++ {
			shards := make([][]byte, 5)
			for i := range shards {
				if i == e1 || i == e2 {
					continue
				}
				shards[i] = append([]byte(nil), full[i]...)
			}
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("erase {%d,%d}: %v", e1, e2, err)
			}
			for i := range shards {
				if !bytes.Equal(shards[i], full[i]) {
					t.Fatalf("erase {%d,%d}: shard %d mismatch", e1, e2, i)
				}
			}
			got, err := c.Join(shards[:3], len(object))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, object) {
				t.Fatalf("erase {%d,%d}: object mismatch", e1, e2)
			}
		}
	}
}

func TestReconstructTooFewShards(t *testing.T) {
	c, _ := NewCode(3, 5)
	shards := make([][]byte, 5)
	shards[0] = []byte{1, 2}
	shards[1] = []byte{3, 4}
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("reconstructed from 2 < m shards")
	}
}

func TestReconstructLengthMismatch(t *testing.T) {
	c, _ := NewCode(2, 3)
	shards := [][]byte{{1, 2}, {3}, nil}
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestReconstructNoOpWhenComplete(t *testing.T) {
	c, _ := NewCode(2, 3)
	data := [][]byte{{1, 2}, {3, 4}}
	parity, _ := c.Encode(data)
	shards := [][]byte{data[0], data[1], parity[0]}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	c, _ := NewCode(3, 5)
	data := [][]byte{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	parity, _ := c.Encode(data)
	shards := append(append([][]byte{}, data...), parity...)
	shards[1] = append([]byte(nil), shards[1]...)
	shards[1][0] ^= 0xff
	ok, err := c.Verify(shards)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("corruption not detected")
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	c, _ := NewCode(3, 5)
	f := func(data []byte) bool {
		shards := c.Split(data)
		got, err := c.Join(shards, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitEmptyObject(t *testing.T) {
	c, _ := NewCode(3, 5)
	shards := c.Split(nil)
	if len(shards) != 3 {
		t.Fatalf("got %d shards", len(shards))
	}
	for _, s := range shards {
		if len(s) == 0 {
			t.Fatal("zero-length shard from empty object")
		}
	}
	obj, err := c.Join(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj) != 0 {
		t.Fatal("empty object round trip failed")
	}
}

// Property: encode + random erasure of up to n-m shards + reconstruct
// always recovers the object, for several code geometries.
func TestRSRandomizedRoundTrip(t *testing.T) {
	r := stats.NewRNG(7)
	geometries := []struct{ m, n int }{{3, 5}, {1, 3}, {4, 6}, {6, 9}, {2, 4}}
	for _, g := range geometries {
		c, err := NewCode(g.m, g.n)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			obj := make([]byte, r.Intn(500)+1)
			for i := range obj {
				obj[i] = byte(r.Intn(256))
			}
			data := c.Split(obj)
			parity, err := c.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			shards := append(append([][]byte{}, data...), parity...)
			// Erase a random set of up to n-m shards.
			erase := r.Perm(g.n)[:r.Intn(g.n-g.m+1)]
			for _, e := range erase {
				shards[e] = nil
			}
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("θ(%d,%d) trial %d: %v", g.m, g.n, trial, err)
			}
			got, err := c.Join(shards[:g.m], len(obj))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, obj) {
				t.Fatalf("θ(%d,%d) trial %d: object mismatch", g.m, g.n, trial)
			}
		}
	}
}

// TestValueRoundTrip: a coded value decodes from every m-subset of its
// n shards, for empty, short and multi-shard values; a frame shorter
// than its 8-byte length or claiming more bytes than it holds is an
// error, not a slice panic.
func TestValueRoundTrip(t *testing.T) {
	const m, n = 3, 5
	for _, v := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 100)} {
		shards, err := EncodeValue(m, n, v)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != n {
			t.Fatalf("%d shards, want %d", len(shards), n)
		}
		for mask := 0; mask < 1<<n; mask++ {
			subset := map[int][]byte{}
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					subset[i] = shards[i]
				}
			}
			if len(subset) != m {
				continue
			}
			got, err := DecodeValue(m, n, subset)
			if err != nil {
				t.Fatalf("%q from shards %05b: %v", v, mask, err)
			}
			if !bytes.Equal(got, v) {
				t.Fatalf("%q from shards %05b decoded as %q", v, mask, got)
			}
		}
	}
	if _, err := DecodeValue(1, 1, map[int][]byte{0: {1, 2}}); err == nil {
		t.Fatal("short frame accepted")
	}
	oversized := make([]byte, 8+3)
	binary.LittleEndian.PutUint64(oversized, 4)
	if _, err := DecodeValue(1, 1, map[int][]byte{0: oversized}); err == nil {
		t.Fatal("frame claiming 4 bytes of 3 accepted")
	}
	shards, err := EncodeValue(m, n, []byte("value"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeValue(m, n, map[int][]byte{0: shards[0], 4: shards[4]}); err == nil {
		t.Fatal("decoded from 2 < m shards")
	}
}
