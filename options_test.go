package qirana

import (
	"bytes"
	"strings"
	"testing"
)

// TestOptionsValidate runs one case per Options.Validate rule through
// every constructor that validates: each must refuse the options with
// an error naming the offending field, while the zero Options and the
// QuoteCacheDisabled sentinel open a broker.
func TestOptionsValidate(t *testing.T) {
	db, err := LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A leader's state directory for OpenBroker and OpenFollower to open,
	// and a saved support set for NewBrokerFromSupport to load.
	dir := t.TempDir()
	leader, err := NewBroker(db, 100, Options{SupportSetSize: 40, Seed: 3, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := leader.SaveSupportSet(&saved); err != nil {
		t.Fatal(err)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	constructors := []struct {
		name string
		open func(Options) (*Broker, error)
	}{
		{"NewBroker", func(o Options) (*Broker, error) { return NewBroker(db, 100, o) }},
		{"NewBrokerFromSupport", func(o Options) (*Broker, error) {
			return NewBrokerFromSupport(db, 100, bytes.NewReader(saved.Bytes()), o)
		}},
		{"OpenBroker", func(o Options) (*Broker, error) { return OpenBroker(dir, db, 100, o) }},
		{"OpenFollower", func(o Options) (*Broker, error) {
			f, err := OpenFollower(dir, db, o)
			if err != nil {
				return nil, err
			}
			return f.Broker(), nil
		}},
	}
	invalid := []struct {
		name string
		opt  Options
		want string // the field the error must name
	}{
		{"negative SupportSetSize", Options{SupportSetSize: -1}, "SupportSetSize"},
		{"SwapFraction below 0", Options{SwapFraction: -0.1}, "SwapFraction"},
		{"SwapFraction above 1", Options{SwapFraction: 1.5}, "SwapFraction"},
		{"negative Workers", Options{Workers: -2}, "Workers"},
		{"QuoteCacheSize below -1", Options{QuoteCacheSize: -2}, "QuoteCacheSize"},
		{"DataDir with UniformSupport", Options{DataDir: t.TempDir(), UniformSupport: true}, "DataDir"},
	}
	valid := []struct {
		name string
		opt  Options
	}{
		{"zero Options", Options{}},
		{"QuoteCacheDisabled", Options{QuoteCacheSize: QuoteCacheDisabled}},
	}
	for _, c := range constructors {
		for _, tc := range invalid {
			t.Run(c.name+"/"+tc.name, func(t *testing.T) {
				b, err := c.open(tc.opt)
				if err == nil {
					b.Close()
					t.Fatalf("%+v accepted", tc.opt)
				}
				if msg := err.Error(); !strings.HasPrefix(msg, "options: ") || !strings.Contains(msg, tc.want) {
					t.Fatalf("error %q does not name %s", msg, tc.want)
				}
			})
		}
		for _, tc := range valid {
			t.Run(c.name+"/"+tc.name, func(t *testing.T) {
				b, err := c.open(tc.opt)
				if err != nil {
					t.Fatalf("%+v rejected: %v", tc.opt, err)
				}
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
