package stats

// Pages is the growth rule shared by the bucketed series: storage is a list
// of fixed-size pages P (an array type), and growing the store allocates
// only the missing pages. Existing pages are never moved or copied, so a
// series that grows with elapsed simulated time costs one page allocation
// per page of buckets instead of a regrowth copy of everything before it.
// Callers index the pages themselves, which keeps the hot read and write
// paths free of calls through the generic type.
type Pages[P any] []*P

// Grow makes pages [0, n) exist. Pages are zeroed when allocated.
func (ps *Pages[P]) Grow(n int) {
	for len(*ps) < n {
		*ps = append(*ps, new(P)) //pclint:allow hotalloc page growth: one zeroed page per page-full of buckets, never copied, so bounded by elapsed sim time, not event count
	}
}
