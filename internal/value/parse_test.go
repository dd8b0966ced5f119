package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParseNumber(t *testing.T) {
	cases := []struct {
		in   string
		num  float64
		gran float64
	}{
		{"6,700,000", 6700000, 1},
		{"6700000", 6700000, 1},
		{"6.7M", 6700000, 1e5},
		{"1.25B", 1.25e9, 1e7},
		{"483.2K", 483200, 1e2},
		{"3.51%", 3.51, 0.01},
		{"$12.85", 12.85, 0.01},
		{"+0.43", 0.43, 0.01},
		{"-0.43", -0.43, 0.01},
		{"(0.43)", -0.43, 0.01},
		{"42", 42, 1},
		{"0.5", 0.5, 0.1},
		{" 17.3m ", 17300000, 1e5},
	}
	for _, c := range cases {
		v, err := ParseNumber(c.in)
		if err != nil {
			t.Errorf("ParseNumber(%q): %v", c.in, err)
			continue
		}
		if math.Abs(v.Num-c.num) > 1e-9*math.Max(1, math.Abs(c.num)) {
			t.Errorf("ParseNumber(%q).Num = %v, want %v", c.in, v.Num, c.num)
		}
		if v.Gran != c.gran {
			t.Errorf("ParseNumber(%q).Gran = %v, want %v", c.in, v.Gran, c.gran)
		}
	}
}

func TestParseNumberErrors(t *testing.T) {
	for _, in := range []string{"", "N/A", "NA", "-", "--", "abc", "12x34", "1.2.3",
		"NaN", "nan", "Inf", "-inf", "+Infinity", "-Infinity", "1e999", "(Inf)", "1.7e308M"} {
		if _, err := ParseNumber(in); err == nil {
			t.Errorf("ParseNumber(%q) should fail", in)
		}
	}
}

func TestParseClock(t *testing.T) {
	cases := map[string]float64{
		"18:15":    1095,
		"6:15pm":   1095,
		"6:15 PM":  1095,
		"06:15AM":  375,
		"12:05am":  5,
		"12:05pm":  725,
		"00:00":    0,
		"23:59":    1439,
		"12:00 AM": 0,
	}
	for in, want := range cases {
		v, err := ParseClock(in)
		if err != nil {
			t.Errorf("ParseClock(%q): %v", in, err)
			continue
		}
		if v.Num != want {
			t.Errorf("ParseClock(%q) = %v minutes, want %v", in, v.Num, want)
		}
	}
}

func TestParseClockErrors(t *testing.T) {
	for _, in := range []string{"", "25:00", "13:00pm", "0:60", "615", "12", "aa:bb", "-1:30", "1:2:3:4"} {
		if _, err := ParseClock(in); err == nil {
			t.Errorf("ParseClock(%q) should fail", in)
		}
	}
}

func TestParseDispatch(t *testing.T) {
	if v, err := Parse(Number, "6.7M"); err != nil || v.Kind != Number {
		t.Errorf("Parse number: %v %v", v, err)
	}
	if v, err := Parse(Time, "6:15pm"); err != nil || v.Kind != Time {
		t.Errorf("Parse time: %v %v", v, err)
	}
	if v, err := Parse(Text, " b22"); err != nil || v.Text != "B22" {
		t.Errorf("Parse text: %v %v", v, err)
	}
	if _, err := Parse(Kind(7), "x"); err == nil {
		t.Error("Parse unknown kind should fail")
	}
}

// Property: formatting then re-parsing a number is stable — the parsed
// quantity matches the formatted quantity within the representation's
// granularity, and re-formatting reproduces the identical string.
func TestNumberRoundTrip(t *testing.T) {
	f := func(raw float64, granExp uint8) bool {
		x := math.Abs(raw)
		if !(x >= 0.01 && x < 1e11) {
			return true
		}
		gran := math.Pow(10, float64(int(granExp%9)-2)) // 0.01 .. 1e6
		if x < gran {
			return true
		}
		s := FormatNumber(x, gran)
		v, err := ParseNumber(s)
		if err != nil {
			return false
		}
		if math.Abs(v.Num-RoundTo(x, gran)) > gran/2+1e-9 {
			return false
		}
		return FormatNumber(v.Num, gran) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: clock round trip. Any whole minute formats and parses back to
// itself (modulo one day).
func TestClockRoundTrip(t *testing.T) {
	f := func(m uint16) bool {
		mins := float64(m % 1440)
		v, err := ParseClock(FormatClock(mins))
		return err == nil && v.Num == mins
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
