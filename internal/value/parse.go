package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse converts a raw string as scraped from a Deep Web source into a
// normalised Value of the given kind. It accepts the representation
// heterogeneity the paper describes: "6.7M", "6,700,000" and "6700000" parse
// to the same quantity (with different granularities); "6:15pm", "18:15" and
// "6:15 PM" parse to the same clock time.
func Parse(kind Kind, raw string) (Value, error) {
	switch kind {
	case Number:
		return ParseNumber(raw)
	case Time:
		return ParseClock(raw)
	case Text:
		return Str(raw), nil
	default:
		return Value{}, fmt.Errorf("value: unknown kind %d", uint8(kind))
	}
}

// ParseNumber parses a numeric deep-web representation. Supported forms:
//
//	"6,700,000"  "6700000"  "6.7M"  "1.25B"  "483.2K"  "3.51%"  "$12.85"
//	"12.85" "-0.43" "+0.43" "(0.43)" (accounting negative) "N/A" -> error
//
// Forms that do not denote a finite quantity ("NaN", "Inf", "-Infinity",
// "1e999") are errors.
//
// The returned value records the granularity implied by the representation:
// suffixed forms are granular at one decimal of the suffix unit, plain forms
// at the last printed decimal.
func ParseNumber(raw string) (Value, error) {
	s := strings.TrimSpace(raw)
	if s == "" {
		return Value{}, fmt.Errorf("value: empty number")
	}
	upper := strings.ToUpper(s)
	if upper == "N/A" || upper == "NA" || upper == "-" || upper == "--" {
		return Value{}, fmt.Errorf("value: missing number %q", raw)
	}
	neg := false
	if strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")") {
		neg = true
		s = s[1 : len(s)-1]
	}
	s = strings.TrimPrefix(s, "$")
	s = strings.TrimPrefix(s, "+")
	if strings.HasPrefix(s, "-") {
		neg = !neg
		s = s[1:]
	}
	s = strings.TrimPrefix(s, "$")
	percent := strings.HasSuffix(s, "%")
	s = strings.TrimSuffix(s, "%")

	mult := 1.0
	switch {
	case hasSuffixFold(s, "B"):
		mult, s = 1e9, s[:len(s)-1]
	case hasSuffixFold(s, "M"):
		mult, s = 1e6, s[:len(s)-1]
	case hasSuffixFold(s, "K"):
		mult, s = 1e3, s[:len(s)-1]
	}
	s = strings.ReplaceAll(s, ",", "")
	s = strings.TrimSpace(s)
	x, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return Value{}, fmt.Errorf("value: bad number %q: %w", raw, err)
	}
	x *= mult
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return Value{}, fmt.Errorf("value: non-finite number %q", raw)
	}
	if neg {
		x = -x
	}
	// Percentages are stored at their printed magnitude ("3.51%" -> 3.51),
	// matching how the paper's sources report change% and yield.
	_ = percent
	gran := granularityOf(s) * mult
	return Value{Kind: Number, Num: x, Gran: gran}, nil
}

func hasSuffixFold(s, suffix string) bool {
	return len(s) > 1 && strings.EqualFold(s[len(s)-1:], suffix)
}

// granularityOf infers the decimal granularity from the printed form:
// "6.7" -> 0.1, "12.85" -> 0.01, "6700" -> 1.
func granularityOf(s string) float64 {
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		return 1
	}
	decimals := len(s) - dot - 1
	g := 1.0
	for i := 0; i < decimals; i++ {
		g /= 10
	}
	if g >= 1 {
		return 1
	}
	return g
}

// ParseClock parses a clock-time representation into minutes since midnight.
// Supported forms: "18:15", "6:15pm", "6:15 PM", "06:15AM", "12:05am".
func ParseClock(raw string) (Value, error) {
	s := strings.ToUpper(strings.TrimSpace(raw))
	if s == "" {
		return Value{}, fmt.Errorf("value: empty time")
	}
	meridiem := 0 // 0 none, 1 AM, 2 PM
	switch {
	case strings.HasSuffix(s, "AM"):
		meridiem = 1
		s = strings.TrimSpace(strings.TrimSuffix(s, "AM"))
	case strings.HasSuffix(s, "PM"):
		meridiem = 2
		s = strings.TrimSpace(strings.TrimSuffix(s, "PM"))
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return Value{}, fmt.Errorf("value: bad time %q", raw)
	}
	h, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return Value{}, fmt.Errorf("value: bad hour in %q: %w", raw, err)
	}
	m, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return Value{}, fmt.Errorf("value: bad minute in %q: %w", raw, err)
	}
	if m < 0 || m > 59 {
		return Value{}, fmt.Errorf("value: minute out of range in %q", raw)
	}
	switch meridiem {
	case 0:
		if h < 0 || h > 23 {
			return Value{}, fmt.Errorf("value: hour out of range in %q", raw)
		}
	case 1: // AM
		if h < 1 || h > 12 {
			return Value{}, fmt.Errorf("value: hour out of range in %q", raw)
		}
		if h == 12 {
			h = 0
		}
	case 2: // PM
		if h < 1 || h > 12 {
			return Value{}, fmt.Errorf("value: hour out of range in %q", raw)
		}
		if h != 12 {
			h += 12
		}
	}
	return Minutes(float64(h*60 + m)), nil
}
