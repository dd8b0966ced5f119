// Package value models the attribute values observed on Deep Web sources and
// the value-level operations the paper relies on: parsing heterogeneous raw
// representations, normalisation, tolerance (Eq. 3), bucketing, similarity,
// and format subsumption ("8M" partially supports "7,528,396").
//
// Three kinds of values appear in the paper's two domains:
//
//   - Number: prices, volumes, market caps, percentages (Stock).
//   - Time:   scheduled/actual departure and arrival times (Flight),
//     represented as minutes since midnight.
//   - Text:   departure/arrival gates (Flight).
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates the three value kinds used in the paper's domains.
type Kind uint8

// The supported value kinds.
const (
	Number Kind = iota // numeric quantity (price, volume, ratio, percent)
	Time               // clock time, minutes since midnight
	Text               // free text (gate identifiers)
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Number:
		return "number"
	case Time:
		return "time"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single normalised attribute value as provided by one source.
//
// Gran records the granularity of the representation the source used: a
// source that prints "6.7M" has Gran 1e5 (one decimal of a million), while a
// source printing "6,712,433" has Gran 1 (whole units). Gran 0 means the
// representation is exact. Granularity drives the format-subsumption insight
// of ACCUFORMAT: a coarse value is a partial provider of any fine value that
// rounds to it.
type Value struct {
	Kind Kind
	Num  float64 // Number: quantity; Time: minutes since midnight
	Text string  // Text payload; empty for Number/Time
	Gran float64 // granularity step of the representation; 0 = exact
}

// Num returns a Number value with the given quantity and exact granularity.
func Num(x float64) Value { return Value{Kind: Number, Num: x} }

// NumGran returns a Number value carrying an explicit representation
// granularity (e.g. 1e6 for a value rounded to whole millions).
func NumGran(x, gran float64) Value { return Value{Kind: Number, Num: x, Gran: gran} }

// Minutes returns a Time value at the given minutes since midnight.
func Minutes(m float64) Value { return Value{Kind: Time, Num: m} }

// Str returns a Text value with a normalised payload.
func Str(s string) Value { return Value{Kind: Text, Text: NormalizeText(s)} }

// IsZero reports whether v is the zero Value (no kind-specific payload set).
// The zero Value is used as "no value provided".
func (v Value) IsZero() bool {
	return v.Kind == Number && v.Num == 0 && v.Text == "" && v.Gran == 0
}

// String renders the canonical representation of the value.
func (v Value) String() string {
	switch v.Kind {
	case Number:
		return FormatNumber(v.Num, v.Gran)
	case Time:
		return FormatClock(v.Num)
	case Text:
		return v.Text
	default:
		return "value(kind=" + strconv.FormatUint(uint64(v.Kind), 10) + ")"
	}
}

// NormalizeText canonicalises a textual value the way the paper normalises
// heterogeneous formats: trim, upper-case, and collapse internal whitespace,
// so "b22 ", "B22" and "B 22" are the same gate.
func NormalizeText(s string) string {
	fields := strings.Fields(strings.ToUpper(strings.TrimSpace(s)))
	return strings.Join(fields, " ")
}

// FormatClock renders minutes-since-midnight as "15:04". Values are wrapped
// into [0, 24h) so that post-midnight arrivals format sensibly.
func FormatClock(minutes float64) string {
	m := int(math.Round(minutes))
	m %= 24 * 60
	if m < 0 {
		m += 24 * 60
	}
	h, mm := m/60, m%60
	return string([]byte{byte('0' + h/10), byte('0' + h%10), ':', byte('0' + mm/10), byte('0' + mm%10)})
}

// FormatNumber renders a quantity the way Deep Web stock sources commonly do:
// exact granularity prints the shortest faithful decimal; granularities at or
// above 1e5 print with a K/M/B suffix ("6.7M"); everything else prints with
// the number of decimals implied by the granularity.
func FormatNumber(x, gran float64) string {
	var buf [32]byte
	if gran <= 0 {
		return string(appendFixed(buf[:0], x, 6))
	}
	x = RoundTo(x, gran)
	switch {
	case gran >= 1e8:
		return string(append(appendFixed(buf[:0], x/1e9, 1), 'B'))
	case gran >= 1e5:
		return string(append(appendFixed(buf[:0], x/1e6, 1), 'M'))
	case gran >= 1e2:
		return string(append(appendFixed(buf[:0], x/1e3, 1), 'K'))
	case gran >= 1:
		return string(appendFixed(buf[:0], x, 0))
	default:
		decimals := int(math.Ceil(-math.Log10(gran)))
		if decimals > 9 {
			decimals = 9
		}
		return string(appendFixed(buf[:0], x, decimals))
	}
}

// appendFixed appends x with the given number of decimals, then trims
// trailing fractional zeros and a bare decimal point ("12.50" -> "12.5",
// "3.00" -> "3").
func appendFixed(dst []byte, x float64, decimals int) []byte {
	dst = strconv.AppendFloat(dst, x, 'f', decimals, 64)
	if decimals <= 0 {
		return dst
	}
	for dst[len(dst)-1] == '0' {
		dst = dst[:len(dst)-1]
	}
	if dst[len(dst)-1] == '.' {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// RoundTo rounds x to the nearest multiple of step. A non-positive step
// returns x unchanged.
func RoundTo(x, step float64) float64 {
	if step <= 0 {
		return x
	}
	return math.Round(x/step) * step
}

// RoundsTo reports whether the fine value rounds to the coarse value at the
// coarse representation's granularity, i.e. whether coarse "subsumes" fine in
// the sense of the paper's formatting insight. Only meaningful for Number and
// Time kinds; Text never subsumes.
func RoundsTo(fine, coarse Value) bool {
	if fine.Kind != coarse.Kind || fine.Kind == Text {
		return false
	}
	if coarse.Gran <= fine.Gran || coarse.Gran <= 0 {
		return false
	}
	return math.Abs(RoundTo(fine.Num, coarse.Gran)-RoundTo(coarse.Num, coarse.Gran)) < coarse.Gran/2
}

// Equal reports whether two values agree within the given tolerance. For
// Number the tolerance is an absolute difference (the caller derives it from
// Eq. 3: tau(A) = alpha * median(V(A))); for Time it is minutes; for Text the
// comparison is exact after normalisation.
func Equal(a, b Value, tol float64) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Text:
		return a.Text == b.Text
	default:
		return math.Abs(a.Num-b.Num) <= tol
	}
}

// Similarity returns a similarity score in [0, 1] between two values of the
// same kind, used by the similarity-aware methods (TRUTHFINDER, ACCUSIM...).
// Numbers and times decay linearly and hit zero at simRange*tol distance;
// text uses a normalised common-prefix/suffix measure that gives partial
// credit to near-miss gates ("B22" vs "B2").
func Similarity(a, b Value, tol float64) float64 {
	if a.Kind != b.Kind {
		return 0
	}
	switch a.Kind {
	case Text:
		return textSimilarity(a.Text, b.Text)
	default:
		if tol <= 0 {
			if a.Num == b.Num {
				return 1
			}
			return 0
		}
		d := math.Abs(a.Num-b.Num) / (simRange * tol)
		if math.IsNaN(d) || d >= 1 {
			return 0
		}
		return 1 - d
	}
}

// simRange controls how many tolerance units away a numeric value may be
// while still receiving partial similarity credit.
const simRange = 5.0

func textSimilarity(a, b string) float64 {
	if a == b {
		return 1
	}
	if a == "" || b == "" {
		return 0
	}
	// Length of the longest common prefix plus suffix, capped at the shorter
	// length, over the longer length. Cheap, symmetric, and adequate for
	// gate-style identifiers.
	pre := 0
	for pre < len(a) && pre < len(b) && a[pre] == b[pre] {
		pre++
	}
	suf := 0
	for suf < len(a)-pre && suf < len(b)-pre && a[len(a)-1-suf] == b[len(b)-1-suf] {
		suf++
	}
	shorter, longer := len(a), len(b)
	if shorter > longer {
		shorter, longer = longer, shorter
	}
	common := pre + suf
	if common > shorter {
		common = shorter
	}
	return float64(common) / float64(longer)
}
