package main

import (
	"io"

	"fixture/internal/dead"
)

type Shape interface{ Area() float64 }

func main() {
	var s Shape = dead.Square{Side: float64(dead.Used())}
	_ = s.Area()
	var w io.Writer = &dead.Square{}
	_, _ = w.Write(nil)
}
