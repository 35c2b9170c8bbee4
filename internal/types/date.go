package types

import "fmt"

// Date handling. Dates are epoch-day counts (days since 1970-01-01), kept
// as int64 so they pack into the same 8-byte slot as integers. The
// conversions below implement the civil-calendar algorithms of Howard
// Hinnant's chrono paper and avoid time.Time allocation on hot paths.

// DaysFromCivil converts year/month/day to days since 1970-01-01.
func DaysFromCivil(y, m, d int) int64 {
	yy := int64(y)
	if m <= 2 {
		yy--
	}
	var era int64
	if yy >= 0 {
		era = yy / 400
	} else {
		era = (yy - 399) / 400
	}
	yoe := yy - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = int64(m) - 3
	} else {
		mp = int64(m) + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1     // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468
}

// CivilFromDays converts days since 1970-01-01 to year/month/day.
func CivilFromDays(z int64) (y, m, d int) {
	z += 719468
	var era int64
	if z >= 0 {
		era = z / 146097
	} else {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097 // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	yy := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
	d = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		m = int(mp + 3)
	} else {
		m = int(mp - 9)
	}
	if m <= 2 {
		yy++
	}
	return int(yy), m, d
}

// ParseDate parses "YYYY-MM-DD" into epoch days.
func ParseDate(s string) (int64, error) {
	var y, m, d int
	if _, err := fmt.Sscanf(s, "%d-%d-%d", &y, &m, &d); err != nil {
		return 0, fmt.Errorf("types: bad date %q: %w", s, err)
	}
	if m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, fmt.Errorf("types: bad date %q", s)
	}
	return DaysFromCivil(y, m, d), nil
}

// MustParseDate is ParseDate that panics on malformed input; for literals
// in tests and generators.
func MustParseDate(s string) int64 {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// FormatDate renders epoch days as "YYYY-MM-DD".
func FormatDate(days int64) string {
	y, m, d := CivilFromDays(days)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// YearOf returns the calendar year of an epoch-day count; used by
// EXTRACT(YEAR FROM ...) in the TPC-H queries.
func YearOf(days int64) int64 {
	y, _, _ := CivilFromDays(days)
	return int64(y)
}

// MonthOf returns the calendar month (1-12) of an epoch-day count.
func MonthOf(days int64) int64 {
	_, m, _ := CivilFromDays(days)
	return int64(m)
}

// AddMonths shifts a date by n calendar months, clamping the day to the
// target month's length (SQL interval semantics).
func AddMonths(days int64, n int) int64 {
	y, m, d := CivilFromDays(days)
	total := y*12 + (m - 1) + n
	ny, nm := total/12, total%12+1
	if nm < 1 {
		nm += 12
		ny--
	}
	if dim := daysInMonth(ny, nm); d > dim {
		d = dim
	}
	return DaysFromCivil(ny, nm, d)
}

func daysInMonth(y, m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	}
	if (y%4 == 0 && y%100 != 0) || y%400 == 0 {
		return 29
	}
	return 28
}
