package suite

import (
	"fmt"
	"go/types"
	"reflect"

	"repro/internal/lint/analysis"
)

// FactStore holds the object facts exported while analyzing packages,
// in memory, for the length of one run. Objects are keyed by text
// rather than by types.Object so the key never depends on which
// type-check produced the object.
type FactStore struct {
	m map[factKey]analysis.Fact
}

// factKey names one fact: the object's package, the object, and the
// fact's concrete type (an object carries at most one fact per type).
type factKey struct {
	pkg, obj string
	typ      reflect.Type
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]analysis.Fact)}
}

// keyOf renders the key for obj's fact of fact's type. Functions and
// methods use go/types' FullName (which qualifies the receiver), other
// objects their bare name; both are deterministic text.
func keyOf(obj types.Object, fact analysis.Fact) factKey {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		name = fn.FullName()
	}
	return factKey{pkg: obj.Pkg().Path(), obj: name, typ: reflect.TypeOf(fact)}
}

// export records fact for obj.
func (s *FactStore) export(obj types.Object, fact analysis.Fact) error {
	if obj == nil || obj.Pkg() == nil {
		return fmt.Errorf("fact %T exported for object without a package", fact)
	}
	s.m[keyOf(obj, fact)] = fact
	return nil
}

// importFact copies the stored fact of fact's concrete type for obj
// into fact and reports whether one existed.
func (s *FactStore) importFact(obj types.Object, fact analysis.Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	stored, ok := s.m[keyOf(obj, fact)]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}
