package uuid

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHasVersion4(t *testing.T) {
	u := New()
	if got := u.Version(); got != 4 {
		t.Fatalf("Version() = %d, want 4", got)
	}
	if u[8]&0xc0 != 0x80 {
		t.Fatalf("variant bits = %#x, want 10xxxxxx", u[8])
	}
}

func TestStringFormat(t *testing.T) {
	u := New()
	s := u.String()
	if len(s) != 36 {
		t.Fatalf("len(String()) = %d, want 36", len(s))
	}
	parts := strings.Split(s, "-")
	wantLens := []int{8, 4, 4, 4, 12}
	if len(parts) != 5 {
		t.Fatalf("String() has %d groups, want 5: %q", len(parts), s)
	}
	for i, p := range parts {
		if len(p) != wantLens[i] {
			t.Errorf("group %d has length %d, want %d", i, len(p), wantLens[i])
		}
	}
	if s != strings.ToLower(s) {
		t.Errorf("String() = %q, want lower-case", s)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for i := 0; i < 50; i++ {
		u := New()
		got, err := Parse(u.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", u.String(), err)
		}
		if got != u {
			t.Fatalf("Parse(String()) = %v, want %v", got, u)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"not-a-uuid",
		"00000000-0000-0000-0000-00000000000",   // too short
		"00000000-0000-0000-0000-0000000000000", // too long
		"00000000x0000-0000-0000-000000000000",  // wrong separator
		"g0000000-0000-0000-0000-000000000000",  // non-hex
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestUniqueness(t *testing.T) {
	const n = 10000
	seen := make(map[UUID]bool, n)
	for i := 0; i < n; i++ {
		u := New()
		if seen[u] {
			t.Fatalf("duplicate UUID after %d draws: %v", i, u)
		}
		seen[u] = true
	}
}

func TestQuickParseStringInverse(t *testing.T) {
	f := func(raw [16]byte) bool {
		var u UUID = raw
		got, err := Parse(u.String())
		return err == nil && got == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendExtendsDst(t *testing.T) {
	u := UUID{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	const want = "00112233-4455-6677-8899-aabbccddeeff"
	if got := string(u.Append([]byte(`"id":`))); got != `"id":`+want {
		t.Errorf("Append = %q, want the prefix then %q", got, want)
	}
	if got := u.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
