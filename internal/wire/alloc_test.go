package wire

import (
	"testing"

	"chordbalance/internal/ids"
)

// TestDecodeAllocs pins Decode's allocation count on the two frames the
// networked hot paths decode most: a put with a 64-byte value and a
// found get reply. The counts are today's (the *Msg and its value
// copy); a codec change that lowers them should lower the constants,
// and one that raises them fails here first.
func TestDecodeAllocs(t *testing.T) {
	value := make([]byte, 64)
	for i := range value {
		value[i] = byte(i)
	}
	cases := []struct {
		name string
		msg  *Msg
		want float64
	}{
		{"put64", &Msg{Type: TPut, Req: 7, Key: ids.FromUint64(42), Value: value}, 2},
		{"getok64", &Msg{Type: TGetOK, Req: 7, Value: value, Flag: true, A: 3}, 2},
	}
	for _, c := range cases {
		frame, err := Encode(c.msg)
		if err != nil {
			t.Fatal(err)
		}
		var decodeErr error
		got := testing.AllocsPerRun(200, func() {
			if _, _, err := Decode(frame); err != nil {
				decodeErr = err
			}
		})
		if decodeErr != nil {
			t.Fatalf("%s: %v", c.name, decodeErr)
		}
		if got != c.want {
			t.Errorf("%s: Decode allocates %v per frame, want %v", c.name, got, c.want)
		}
	}
}
