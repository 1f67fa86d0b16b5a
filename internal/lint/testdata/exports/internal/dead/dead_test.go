package dead

import "testing"

func TestTestOnly(t *testing.T) { TestOnly() }
