package sketch

import "testing"

// TestWireTags pins the leading byte of every serialized sketch. Bytes
// 4 (CountMin) and 6 (AMS) belong to retired sketches and stay
// reserved, so no live tag may take them.
func TestWireTags(t *testing.T) {
	for _, c := range []struct {
		name string
		tag  uint8
		want uint8
		blob func() ([]byte, error)
	}{
		{"KMV", tagKMV, 1, NewKMV(8, 1).MarshalBinary},
		{"HLL", tagHLL, 2, NewHLL(4, 1).MarshalBinary},
		{"BJKST", tagBJKST, 3, NewBJKST(8, 1).MarshalBinary},
		{"CountSketch", tagCountSketch, 5, NewCountSketch(4, 1, 1).MarshalBinary},
		{"Stable", tagStable, 7, NewStable(1, 3, 1).MarshalBinary},
		{"KHLL", tagKHLL, 8, NewKHLL(2, 4, 1).MarshalBinary},
	} {
		if c.tag != c.want {
			t.Errorf("%s tag = %d, want %d", c.name, c.tag, c.want)
		}
		b, err := c.blob()
		if err != nil || len(b) == 0 || b[0] != c.want {
			t.Errorf("%s blob starts %v (err %v), want tag byte %d", c.name, b[:min(len(b), 1)], err, c.want)
		}
	}
}
