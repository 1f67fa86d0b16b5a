package dead

// Dead has no caller at all.
func Dead() {}

// TestOnly is called only from dead_test.go.
func TestOnly() {}

// Loop calls only itself, which is no caller.
func Loop(n int) int {
	if n == 0 {
		return 0
	}
	return Loop(n - 1)
}

// Used has a caller in cmd/app, so its allowlist row is stale.
func Used() int { return 1 }

// Kept has no caller but an allowlist row.
func Kept() {}

// Square's Area is called only through the Shape interface of cmd/app,
// its Write only through io.Writer, and its String by convention.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s *Square) Write(p []byte) (int, error) { return len(p), nil }

func (s Square) String() string { return "square" }

// Perimeter is a method no interface needs and nothing calls.
func (s Square) Perimeter() float64 { return 4 * s.Side }
