// Package pub is outside internal/, so its exports are out of scope.
package pub

// Unused has no caller, but it is not under internal/.
func Unused() {}
