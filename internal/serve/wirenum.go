package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"unsafe"
)

// number consumes one JSON number and returns what strconv.ParseFloat — and
// so encoding/json — makes of the same bytes, bit for bit. One pass over the
// bytes checks the RFC 8259 grammar (ParseFloat alone also takes hex floats,
// "Inf", digit-separating underscores, a leading '+' and a bare leading or
// trailing '.') and gathers the decimal mantissa, up to 19 significant
// digits, and its exponent. Two exact conversions then cover nearly every
// wire number:
//
//   - Clinger's fast path: a mantissa below 2^53 and a power of ten up to
//     10^22 are both exact float64s, so one IEEE multiply or divide rounds
//     their product or quotient correctly;
//   - Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second",
//     Softw. Pract. Exp. 2021): the mantissa times a 128-bit truncation of
//     the power of ten, which decides the rounding unless the product lies
//     too near a halfway point.
//
// ParseFloat, on the same bytes, takes the rest: a non-zero digit past the
// 19th, an exponent outside pow10x128, an undecided halfway product, and
// subnormal or overflowing results. An overflow is an error wrapping
// strconv.ErrRange, as it is from ParseFloat.
func (d *wireDec) number() (float64, error) {
	b, i := d.b, d.i // the cursor in a local: this is the hot loop
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64 // the significant digits kept, at most maxMantDigits
	nd := 0         // how many: leading zeros are not significant
	exp := 0        // the number is mant × 10^exp, up to the digits dropped
	exact := true   // no non-zero digit dropped
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		from := i
		for ; i < len(b) && nd < maxMantDigits; i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			mant = mant*10 + uint64(c)
			nd++
		}
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			exp++
			exact = exact && c == 0
		}
		if i == from {
			return d.badNumber(i)
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		from := i
		if mant == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		for ; i < len(b) && nd < maxMantDigits; i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			mant = mant*10 + uint64(c)
			nd++
		}
		exp -= i - from // every fraction digit up to here scales the mantissa
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			exact = exact && c == 0
		}
		if i == from {
			return d.badNumber(i)
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		from := i
		e := 0
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if e < expSaturation {
				e = e*10 + int(c)
			}
		}
		if i == from {
			return d.badNumber(i)
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	d.i = i

	if exact {
		if mant == 0 {
			exp = 0 // ±0 at any exponent
		}
		if mant < 1<<53 && -22 <= exp && exp <= 22 {
			f := float64(mant)
			if exp < 0 {
				f /= exactPow10[-exp]
			} else {
				f *= exactPow10[exp]
			}
			if neg {
				f = -f
			}
			return f, nil
		}
		if f, ok := eiselLemire(mant, exp, neg); ok {
			return f, nil
		}
	}
	// The bytes stay unchanged and ParseFloat keeps no reference to its
	// argument (its errors hold a copy), so the string view costs no
	// allocation however long the number.
	v, err := strconv.ParseFloat(unsafe.String(&b[start], i-start), 64)
	if err != nil {
		return 0, fmt.Errorf("request body offset %d: number %s: %w", i, b[start:i], strconv.ErrRange)
	}
	return v, nil
}

// badNumber is number's grammar refusal, reported where the scan stopped.
func (d *wireDec) badNumber(i int) (float64, error) {
	d.i = i
	return 0, d.errorf("want a JSON number")
}

const (
	// maxMantDigits is how many significant digits a uint64 always holds.
	maxMantDigits = 19
	// expSaturation is where ParseFloat stops accumulating exponent
	// digits. Stopping where it does keeps the two bit-identical on the
	// (absurd) number whose exponent is longer and whose integer digits
	// are as many, so that the saturated count is not out of range.
	expSaturation = 10000
	// minPow10 and maxPow10 bound the powers of ten in pow10x128.
	minPow10, maxPow10 = -64, 64
)

// exactPow10 holds the powers of ten that float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// pow10x128[e-minPow10] is 10^e as a 128-bit mantissa with its top bit set,
// rounded down where it does not fit (every negative e, and e > 55), as
// Eisel–Lemire's error bound assumes. Built once from exact big integers.
var pow10x128 = func() (t [maxPow10 - minPow10 + 1]struct{ hi, lo uint64 }) {
	var buf [16]byte
	for e := minPow10; e <= maxPow10; e++ {
		n := int64(e)
		if n < 0 {
			n = -n
		}
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(n), nil)
		if e < 0 { // 2^k / 10^-e with k large enough for 129 bits of quotient
			p.Quo(new(big.Int).Lsh(big.NewInt(1), uint(p.BitLen()+128)), p)
		}
		if s := p.BitLen() - 128; s > 0 {
			p.Rsh(p, uint(s))
		} else {
			p.Lsh(p, uint(-s))
		}
		p.FillBytes(buf[:])
		t[e-minPow10].hi = binary.BigEndian.Uint64(buf[:8])
		t[e-minPow10].lo = binary.BigEndian.Uint64(buf[8:])
	}
	return t
}()

// eiselLemire returns mant × 10^exp10, mant ≠ 0, rounded to the nearest
// float64, ties to even, or false where it cannot be sure: exp10 outside
// the table, a product too near a halfway point, and a result that is
// subnormal or past the largest float64.
func eiselLemire(mant uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	pow := &pow10x128[exp10-minPow10]
	// With the mantissa's top bit at 63, the high 128 bits of its product
	// with the power hold the result's 54 leading bits and what rounds them.
	lz := bits.LeadingZeros64(mant)
	mant <<= uint(lz)
	hi, lo := bits.Mul64(mant, pow.hi)
	// The truncated power is short by less than one unit of its low word,
	// so the product is short by less than mant: that can carry into the
	// bits that decide the rounding only if the 9 bits below the 54 kept
	// are all ones. Then take the low word in too, and give up if even the
	// 192-bit product leaves the carry open.
	if hi&0x1ff == 0x1ff && lo+mant < mant {
		hi2, lo2 := bits.Mul64(mant, pow.lo)
		var carry uint64
		lo, carry = bits.Add64(lo, hi2, 0)
		hi += carry
		if hi&0x1ff == 0x1ff && lo == math.MaxUint64 && lo2+mant < mant {
			return 0, false
		}
	}
	// The product's top bit is 127 or 126; keep 54 bits from it.
	top := hi >> 63
	m := hi >> (top + 9)
	// floor(log2(10^exp10)) is 217706·exp10 >> 16 over the table's range;
	// the biased binary exponent follows from it and the two shifts.
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(lz) - (1 ^ top)
	// An exact halfway product whose rounding up would break the tie away
	// from even: only a longer computation can tell it from a near miss.
	if lo == 0 && hi&0x1ff == 0 && m&3 == 1 {
		return 0, false
	}
	m = (m + m&1) >> 1 // round the 54 bits to 53
	if m>>53 != 0 {    // rounding carried out of the mantissa
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7ff-1 { // exponent 0 (zero or subnormal) or ≥ 0x7ff (Inf)
		return 0, false
	}
	f := exp2<<52 | m&(1<<52-1)
	if neg {
		f |= 1 << 63
	}
	return math.Float64frombits(f), true
}
