int f(int p)
{
  int a1 = p * 3;
  int a2 = a1 + p;
  int a3 = a2 + p;
  int a4 = a3 + p;
  int a5 = a4 + p;
  int a6 = a5 + p;
  int a7 = a6 + p;
  int a8 = a7 + p;
  int a9 = a8 + p;
  int a10 = a9 + p;
  int a11 = a10 + p;
  int a12 = a11 + p;
  int a13 = a12 + p;
  int a14 = a13 + p;
  int a15 = a14 + p;
  int a16 = a15 + p;
  int a17 = a16 + p;
  int a18 = a17 + p;
  int a19 = a18 + p;
  int a20 = a19 + p;
  int a21 = a20 + p;
  int a22 = a21 + p;
  int a23 = a22 + p;
  int a24 = a23 + p;
  int a25 = a24 + p;
  int a26 = a25 + p;
  int a27 = a26 + p;
  int a28 = a27 + p;
  int a29 = a28 + p;
  int a30 = a29 + p;
  int a31 = a30 + p;
  int a32 = a31 + p;
  int a33 = a32 + p;
  int a34 = a33 + p;
  int a35 = a34 + p;
  int a36 = a35 + p;
  int a37 = a36 + p;
  int a38 = a37 + p;
  int a39 = a38 + p;
  int a40 = a39 + p;
  return p;
}

int main(void)
{
  return f(2) - 2;
}
