package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"chordbalance/internal/ids"
)

// sample returns one representative message per type, with every field
// the type carries populated.
func sample(t Type) *Msg {
	ref := func(b byte, addr string) NodeRef {
		return NodeRef{ID: ids.FromBytes([]byte{b, 2, 3}), Addr: addr}
	}
	m := &Msg{Type: t, Req: 42}
	mask := Fields(t)
	if mask&fKey != 0 {
		m.Key = ids.FromUint64(77)
	}
	if mask&fKey2 != 0 {
		m.Key2 = ids.FromUint64(78)
	}
	if mask&fFrom != 0 {
		m.From = ref(1, "127.0.0.1:9001")
	}
	if mask&fNode != 0 {
		m.Node = ref(2, "pipe:7")
	}
	if mask&fList != 0 {
		m.List = []NodeRef{ref(3, "a:1"), ref(4, ""), ref(5, "b:2")}
	}
	if mask&fRecs != 0 {
		m.Recs = []Rec{
			{Key: ids.FromUint64(1), Ver: 5, Value: []byte("hello")},
			{Key: ids.FromUint64(2), Ver: 1, Value: nil},
		}
	}
	if mask&fTasks != 0 {
		m.Tasks = []Task{{Key: ids.FromUint64(9), Units: 3}, {Key: ids.FromUint64(10), Units: 1}}
	}
	if mask&fMetas != 0 {
		sum := [SumLen]byte{0: 0xaa, 31: 0xbb}
		m.Metas = []Meta{
			{Key: ids.FromUint64(5), Ver: 2, Sum: sum},
			{Key: ids.FromUint64(6), Ver: 9},
		}
	}
	if mask&fValue != 0 {
		m.Value = []byte("payload bytes")
	}
	if mask&fA != 0 {
		m.A = 11
	}
	if mask&fB != 0 {
		m.B = 22
	}
	if mask&fC != 0 {
		m.C = 33
	}
	if mask&fFlag != 0 {
		m.Flag = true
	}
	if mask&fText != 0 {
		m.Text = "no route to key"
	}
	return m
}

func TestRoundTripEveryType(t *testing.T) {
	for ty := TPing; ty < typeCount; ty++ {
		in := sample(ty)
		frame, err := Append(nil, in)
		if err != nil {
			t.Fatalf("%v: encode: %v", ty, err)
		}
		out, n, err := Decode(frame)
		if err != nil {
			t.Fatalf("%v: decode: %v", ty, err)
		}
		if n != len(frame) {
			t.Fatalf("%v: consumed %d of %d", ty, n, len(frame))
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%v: round trip mismatch\n in: %+v\nout: %+v", ty, in, out)
		}
	}
}

func TestReadWriteStream(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	msgs := []*Msg{sample(TFindSuccessor), sample(TJoinOK), sample(TReport)}
	for _, m := range msgs {
		if err := c.WriteMsg(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got := new(Msg)
		if err := c.ReadMsg(got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("stream mismatch: %+v vs %+v", want, got)
		}
	}
	if err := c.ReadMsg(new(Msg)); err != io.EOF {
		t.Errorf("empty stream: got %v, want EOF", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good, err := Append(nil, sample(TPut))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"short header", func(b []byte) []byte { return b[:HeaderLen-1] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"bad version", func(b []byte) []byte { b[2] = 9; return b }, ErrBadVersion},
		{"bad type", func(b []byte) []byte { b[3] = 250; return b }, ErrBadType},
		{"zero type", func(b []byte) []byte { b[3] = 0; return b }, ErrBadType},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }, ErrTruncated},
		{"oversized declared payload", func(b []byte) []byte {
			b[12], b[13], b[14], b[15] = 0xff, 0xff, 0xff, 0xff
			return b
		}, ErrTooLarge},
		{"trailing bytes", func(b []byte) []byte {
			b = append(b, 0)
			b[15]++ // declared payload covers the junk byte
			return b
		}, ErrTrailing},
	}
	for _, tc := range cases {
		b := append([]byte(nil), good...)
		b = tc.mutate(b)
		if _, _, err := Decode(b); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeBoundsListCount(t *testing.T) {
	// A TSuccListOK frame declaring 60000 refs in a 4-byte payload must
	// fail as truncated without allocating the declared list.
	m := &Msg{Type: TSuccListOK, Req: 1}
	frame, err := Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	frame[HeaderLen] = 0xea // count = 0xea60 = 60000
	frame[HeaderLen+1] = 0x60
	if _, _, err := Decode(frame); err == nil {
		t.Fatal("oversized list count accepted")
	}
}

func TestEncodeRejectsOversizedFields(t *testing.T) {
	cases := []*Msg{
		{Type: TPut, Value: make([]byte, MaxValueLen+1)},
		{Type: TError, Text: strings.Repeat("x", MaxTextLen+1)},
		{Type: TNotify, From: NodeRef{Addr: strings.Repeat("a", MaxAddrLen+1)}},
		{Type: TSuccListOK, List: make([]NodeRef, MaxListLen+1)},
		{Type: TReplicate, Recs: make([]Rec, MaxRecs+1)},
		{Type: TSyncKeysOK, Metas: make([]Meta, MaxMetas+1)},
		{Type: TTransfer, Tasks: make([]Task, MaxTasks+1)},
	}
	for _, m := range cases {
		if _, err := Append(nil, m); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%v: got %v, want ErrTooLarge", m.Type, err)
		}
	}
	if _, err := Append(nil, &Msg{Type: typeCount}); !errors.Is(err, ErrBadType) {
		t.Errorf("invalid type: got %v, want ErrBadType", err)
	}
}

func TestUnmaskedFieldsAreNotEncoded(t *testing.T) {
	// TPing carries no fields: junk in the struct must not leak onto the
	// wire, so the round trip normalizes to the empty message.
	in := &Msg{Type: TPing, Req: 7, Key: ids.FromUint64(1), Text: "junk", A: 9}
	frame, err := Append(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != HeaderLen {
		t.Fatalf("TPing frame %d bytes, want bare header", len(frame))
	}
	out, _, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	want := &Msg{Type: TPing, Req: 7}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("junk leaked through: %+v", out)
	}
}

func TestTypeString(t *testing.T) {
	if got := TFindSuccessor.String(); got != "find_successor" {
		t.Errorf("TFindSuccessor.String() = %q", got)
	}
	if got := Type(200).String(); got != "type(200)" {
		t.Errorf("unknown type String() = %q", got)
	}
}
