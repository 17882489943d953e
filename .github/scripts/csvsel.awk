# csvsel.awk — select the cells of a sweep CSV by header name (quote-aware,
# plain POSIX awk), so a check names the columns it compares instead of
# counting them.
#
#   awk -v cols=a,b,c -f csvsel.awk file.csv      the named columns, in order
#   awk -v except=a,b -f csvsel.awk file.csv      every column but these
#   -v group=G -v row=I                           only rows whose `group` /
#                                                 `index` cells equal G / I
#
# Prints one line per selected data row, its cells joined by tabs (quotes
# removed). Exits 2 when a named column is missing from the header.

function split_csv(line, out,    n, i, c, cell, quoted) {
  n = 0
  cell = ""
  quoted = 0
  for (i = 1; i <= length(line); i++) {
    c = substr(line, i, 1)
    if (quoted) {
      if (c == "\"" && substr(line, i + 1, 1) == "\"") { cell = cell c; i++ }
      else if (c == "\"") quoted = 0
      else cell = cell c
    } else if (c == "\"") quoted = 1
    else if (c == ",") { out[++n] = cell; cell = "" }
    else cell = cell c
  }
  out[++n] = cell
  return n
}

function need(name) {
  if (!(name in pos)) { print "csvsel: no column '" name "'" > "/dev/stderr"; bad = 1; exit 2 }
  return pos[name]
}

NR == 1 {
  ncols = split_csv($0, head)
  for (i = 1; i <= ncols; i++) pos[head[i]] = i
  nsel = 0
  if (cols != "") {
    n = split(cols, names, ",")
    for (i = 1; i <= n; i++) sel[++nsel] = need(names[i])
  } else {
    n = split(except, names, ",")
    for (i = 1; i <= n; i++) skip[need(names[i])] = 1
    for (i = 1; i <= ncols; i++) if (!(i in skip)) sel[++nsel] = i
  }
  if (group != "") group_col = need("group")
  if (row != "") row_col = need("index")
  next
}

{
  split_csv($0, cell)
  if (group != "" && cell[group_col] != group) next
  if (row != "" && cell[row_col] != row) next
  out = ""
  for (i = 1; i <= nsel; i++) out = out (i > 1 ? "\t" : "") cell[sel[i]]
  print out
}

END { if (bad) exit 2 }
