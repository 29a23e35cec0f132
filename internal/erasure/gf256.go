// Package erasure implements systematic Reed-Solomon erasure coding
// θ(m, n) over GF(2^8): the original object is split into m data chunks,
// k = n - m parity chunks are generated, and the object can be
// reconstructed from any m of the n chunks (paper §5.1.2). It is the
// coding substrate of the RS-Paxos based distributed storage service.
package erasure

// GF(2^8) arithmetic with the AES field polynomial x^8+x^4+x^3+x+1
// (0x11d generator tables, generator element 2).

const fieldSize = 256

var (
	expTable [2 * fieldSize]byte // exp[i] = 2^i, doubled to avoid mod 255
	logTable [fieldSize]int
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < len(expTable); i++ {
		expTable[i] = expTable[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[logTable[a]+logTable[b]]
}

// gfInv returns the multiplicative inverse. It panics on zero.
func gfInv(a byte) byte {
	if a == 0 {
		panic("erasure: zero has no inverse in GF(2^8)")
	}
	return expTable[255-logTable[a]]
}

// gfExp returns base^power for a field element.
func gfExp(base byte, power int) byte {
	if base == 0 {
		if power == 0 {
			return 1
		}
		return 0
	}
	l := (logTable[base] * power) % 255
	if l < 0 {
		l += 255
	}
	return expTable[l]
}

// mulSlice computes out[i] ^= c * in[i] for all i (accumulating
// row-times-scalar into a destination), the inner loop of encoding.
func mulSliceXor(c byte, in, out []byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i, v := range in {
			out[i] ^= v
		}
		return
	}
	logC := logTable[c]
	for i, v := range in {
		if v != 0 {
			out[i] ^= expTable[logC+logTable[v]]
		}
	}
}
