package erasure

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Code is a systematic θ(m, n) Reed-Solomon code: m data shards, n-m
// parity shards, reconstruction from any m of the n shards. A Code is
// immutable and safe for concurrent use.
type Code struct {
	m, n int
	// enc is the n×m encoding matrix whose top m rows are the identity
	// (systematic form): shards = enc × data.
	enc *matrix
}

// NewCode builds a θ(m, n) code. m and n must satisfy
// 1 <= m <= n <= 256 (the field size bounds the shard count).
func NewCode(m, n int) (*Code, error) {
	if m < 1 || n < m || n > fieldSize {
		return nil, fmt.Errorf("erasure: invalid code θ(%d, %d)", m, n)
	}
	// Build a systematic encoding matrix: take an n×m Vandermonde
	// matrix and normalize its top m×m block to the identity.
	v := vandermonde(n, m)
	top := v.subRows(seq(m))
	topInv, err := top.invert()
	if err != nil {
		return nil, fmt.Errorf("erasure: building θ(%d, %d): %w", m, n, err)
	}
	return &Code{m: m, n: n, enc: v.mul(topInv)}, nil
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// Split divides an object into m equal-sized data shards, zero-padding
// the tail. The original length must be carried out of band (EncodeValue
// frames it).
func (c *Code) Split(object []byte) [][]byte {
	shardLen := (len(object) + c.m - 1) / c.m
	if shardLen == 0 {
		shardLen = 1
	}
	shards := make([][]byte, c.m)
	for i := range shards {
		shards[i] = make([]byte, shardLen)
		lo := i * shardLen
		if lo < len(object) {
			copy(shards[i], object[lo:])
		}
	}
	return shards
}

// Encode computes the n-m parity shards for the given m data shards.
// All shards must be the same length.
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	if err := c.checkShards(data, c.m); err != nil {
		return nil, err
	}
	size := len(data[0])
	parity := make([][]byte, c.n-c.m)
	for p := range parity {
		parity[p] = make([]byte, size)
		row := c.enc.row(c.m + p)
		for d := 0; d < c.m; d++ {
			mulSliceXor(row[d], data[d], parity[p])
		}
	}
	return parity, nil
}

// Reconstruct fills in the missing shards of a full n-slot shard slice
// in place. Present shards are non-nil and equal length; missing shards
// are nil. At least m shards must be present.
func (c *Code) Reconstruct(shards [][]byte) error {
	if len(shards) != c.n {
		return fmt.Errorf("erasure: Reconstruct got %d slots, want %d", len(shards), c.n)
	}
	present := make([]int, 0, c.n)
	size := -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("erasure: shard %d length %d != %d", i, len(s), size)
		}
		present = append(present, i)
	}
	if len(present) < c.m {
		return fmt.Errorf("erasure: only %d shards present, need %d", len(present), c.m)
	}
	if len(present) == c.n {
		return nil
	}
	// Solve for the data shards from any m present shards, then
	// re-encode whatever is missing.
	rows := present[:c.m]
	sub := c.enc.subRows(rows)
	inv, err := sub.invert()
	if err != nil {
		return fmt.Errorf("erasure: reconstruction matrix singular: %w", err)
	}
	data := make([][]byte, c.m)
	for d := 0; d < c.m; d++ {
		data[d] = make([]byte, size)
		row := inv.row(d)
		for j, src := range rows {
			mulSliceXor(row[j], shards[src], data[d])
		}
	}
	for i := 0; i < c.n; i++ {
		if shards[i] != nil {
			continue
		}
		out := make([]byte, size)
		row := c.enc.row(i)
		for d := 0; d < c.m; d++ {
			mulSliceXor(row[d], data[d], out)
		}
		shards[i] = out
	}
	return nil
}

// Verify checks that the parity shards are consistent with the data
// shards. shards must contain all n shards.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	if err := c.checkShards(shards, c.n); err != nil {
		return false, err
	}
	parity, err := c.Encode(shards[:c.m])
	if err != nil {
		return false, err
	}
	for i, p := range parity {
		if !bytes.Equal(p, shards[c.m+i]) {
			return false, nil
		}
	}
	return true, nil
}

func (c *Code) checkShards(shards [][]byte, want int) error {
	if len(shards) != want {
		return fmt.Errorf("erasure: got %d shards, want %d", len(shards), want)
	}
	if len(shards[0]) == 0 {
		return fmt.Errorf("erasure: empty shards")
	}
	for i, s := range shards {
		if len(s) != len(shards[0]) {
			return fmt.Errorf("erasure: shard %d length %d != %d", i, len(s), len(shards[0]))
		}
	}
	return nil
}

// EncodeValue codes a value θ(m, n): an 8-byte little-endian length
// frame and the value are split into m data shards, followed by n-m
// parity shards. DecodeValue restores the value from any m of them.
func EncodeValue(m, n int, value []byte) ([][]byte, error) {
	c, err := NewCode(m, n)
	if err != nil {
		return nil, err
	}
	framed := make([]byte, 8+len(value))
	binary.LittleEndian.PutUint64(framed, uint64(len(value)))
	copy(framed[8:], value)
	data := c.Split(framed)
	parity, err := c.Encode(data)
	if err != nil {
		return nil, err
	}
	return append(data, parity...), nil
}

// DecodeValue reconstructs a value EncodeValue coded θ(m, n) from at
// least m of its shards, keyed by shard index: it joins the data shards
// and strips the length frame.
func DecodeValue(m, n int, shards map[int][]byte) ([]byte, error) {
	c, err := NewCode(m, n)
	if err != nil {
		return nil, err
	}
	all := make([][]byte, n)
	for idx, sh := range shards {
		if idx >= 0 && idx < n {
			all[idx] = sh
		}
	}
	if err := c.Reconstruct(all); err != nil {
		return nil, err
	}
	joined := bytes.Join(all[:m], nil)
	if len(joined) < 8 {
		return nil, fmt.Errorf("erasure: framed value too short")
	}
	l := binary.LittleEndian.Uint64(joined)
	if l > uint64(len(joined)-8) {
		return nil, fmt.Errorf("erasure: framed length %d exceeds payload", l)
	}
	return joined[8 : 8+l], nil
}
